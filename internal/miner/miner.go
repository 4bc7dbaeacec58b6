// Package miner implements the CPU miner whose hash rate is the victim-side
// impact metric of the paper's flooding experiments (Fig. 6, Fig. 7,
// Table III): BM-DoS steals application-layer CPU from exactly this loop.
package miner

import (
	"sync/atomic"
	"time"

	"banscore/internal/blockchain"
	"banscore/internal/chainhash"
	"banscore/internal/wire"
)

// DefaultHashesPerSample is the paper's per-sample work: 10^7 hashes. The
// experiments default to a smaller value to stay laptop-scale; the parameter
// is explicit everywhere.
const DefaultHashesPerSample = 1e7

// sampleHeader builds the header template the measurement loop grinds.
func sampleHeader() wire.BlockHeader {
	prev := chainhash.DoubleHashH([]byte("bench prev"))
	merkle := chainhash.DoubleHashH([]byte("bench merkle"))
	return wire.BlockHeader{
		Version:    1,
		PrevBlock:  prev,
		MerkleRoot: merkle,
		Timestamp:  time.Unix(1700000000, 0),
		Bits:       0x207fffff,
	}
}

// HashRateSample grinds the header nonce for the given number of hashes and
// returns the measured rate in hashes per second.
func HashRateSample(hashes uint64) float64 {
	header := sampleHeader()
	start := time.Now()
	var sink byte
	for i := uint64(0); i < hashes; i++ {
		header.Nonce = uint32(i)
		h := header.BlockHash()
		sink ^= h[0]
	}
	elapsed := time.Since(start)
	_ = sink
	if elapsed <= 0 {
		return 0
	}
	return float64(hashes) / elapsed.Seconds()
}

// Miner is a continuously running CPU miner against a live chain. It mines
// real blocks (at the chain's difficulty) and counts every hash attempt so
// experiments can read the achieved hash rate while attacks run.
type Miner struct {
	chain *blockchain.Chain

	attempts atomic.Uint64
	mined    atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// New returns a Miner for the chain. Call Start to begin.
func New(chain *blockchain.Chain) *Miner {
	return &Miner{
		chain: chain,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the mining loop.
func (m *Miner) Start() {
	go m.run()
}

func (m *Miner) run() {
	defer close(m.done)
	extraNonce := uint64(0)
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		extraNonce++
		prev := m.chain.BestHash()
		height := m.chain.BestHeight() + 1
		block := blockchain.BuildBlock(m.chain.Params(), prev, height, extraNonce, time.Now(), nil)
		target := blockchain.CompactToBig(block.Header.Bits)

		solved := false
		for nonce := uint32(0); ; nonce++ {
			// Check for shutdown and chain movement periodically.
			if nonce%4096 == 0 {
				select {
				case <-m.stop:
					return
				default:
				}
				if m.chain.BestHash() != prev {
					break // stale work
				}
			}
			block.Header.Nonce = nonce
			hash := block.Header.BlockHash()
			m.attempts.Add(1)
			if blockchain.HashToBig(&hash).Cmp(target) <= 0 {
				solved = true
				break
			}
			if nonce == ^uint32(0) {
				break
			}
		}
		if solved {
			if _, err := m.chain.ProcessBlock(block); err == nil {
				m.mined.Add(1)
			}
		}
	}
}

// Attempts returns the total hash attempts so far.
func (m *Miner) Attempts() uint64 { return m.attempts.Load() }

// Mined returns how many blocks the miner has connected.
func (m *Miner) Mined() uint64 { return m.mined.Load() }

// RateOver measures the achieved hash rate over the given wall-clock window
// by sampling the attempt counter.
func (m *Miner) RateOver(window time.Duration) float64 {
	before := m.attempts.Load()
	start := time.Now()
	time.Sleep(window)
	elapsed := time.Since(start).Seconds()
	after := m.attempts.Load()
	if elapsed <= 0 {
		return 0
	}
	return float64(after-before) / elapsed
}

// Stop halts the mining loop and waits for it to exit.
func (m *Miner) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}
