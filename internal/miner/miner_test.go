package miner

import (
	"testing"
	"time"

	"banscore/internal/blockchain"
)

func TestHashRateSamplePositive(t *testing.T) {
	rate := HashRateSample(20000)
	if rate <= 0 {
		t.Fatalf("hash rate = %v", rate)
	}
	// A modern CPU double-SHA256s at far above 10k/s.
	if rate < 10000 {
		t.Errorf("hash rate implausibly low: %v h/s", rate)
	}
}

func TestMinerMinesOnSimnet(t *testing.T) {
	chain := blockchain.New(blockchain.SimNetParams())
	m := New(chain)
	m.Start()
	deadline := time.Now().Add(5 * time.Second)
	for chain.BestHeight() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	if chain.BestHeight() < 3 {
		t.Fatalf("mined only to height %d", chain.BestHeight())
	}
	if m.Mined() < 3 {
		t.Errorf("Mined = %d", m.Mined())
	}
	if m.Attempts() == 0 {
		t.Error("no attempts counted")
	}
}

func TestMinerStopIsIdempotentAndPrompt(t *testing.T) {
	chain := blockchain.New(blockchain.HardNetParams())
	m := New(chain)
	m.Start()
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		m.Stop()
		m.Stop() // second call must not panic or hang
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Stop did not return")
	}
	if m.Attempts() == 0 {
		t.Error("hardnet miner made no attempts")
	}
}

func TestRateOverMeasuresProgress(t *testing.T) {
	chain := blockchain.New(blockchain.HardNetParams())
	m := New(chain)
	m.Start()
	defer m.Stop()
	rate := m.RateOver(50 * time.Millisecond)
	if rate <= 0 {
		t.Errorf("RateOver = %v", rate)
	}
}
