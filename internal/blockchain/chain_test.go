package blockchain

import (
	"errors"
	"math/big"
	"testing"
	"testing/quick"
	"time"

	"banscore/internal/chainhash"
	"banscore/internal/wire"
)

func fixedClock() func() time.Time {
	at := time.Unix(1700000000, 0)
	return func() time.Time { return at }
}

func newTestChain(t *testing.T) *Chain {
	t.Helper()
	return New(SimNetParams(), WithClock(fixedClock()))
}

// mustGenerate mines and connects n blocks, returning the last one.
func mustGenerate(t *testing.T, c *Chain, n int) *wire.MsgBlock {
	t.Helper()
	var last *wire.MsgBlock
	for i := 0; i < n; i++ {
		block, err := GenerateBlock(c, uint64(i), nil)
		if err != nil {
			t.Fatalf("GenerateBlock: %v", err)
		}
		if _, err := c.ProcessBlock(block); err != nil {
			t.Fatalf("ProcessBlock: %v", err)
		}
		last = block
	}
	return last
}

func TestNewChainStartsAtGenesis(t *testing.T) {
	c := newTestChain(t)
	if c.BestHeight() != 0 {
		t.Errorf("BestHeight = %d, want 0", c.BestHeight())
	}
	if c.BestHash() != c.Params().GenesisHash {
		t.Error("tip is not genesis")
	}
	if !c.HaveBlock(&c.Params().GenesisHash) {
		t.Error("genesis not in index")
	}
}

func TestProcessValidChain(t *testing.T) {
	c := newTestChain(t)
	mustGenerate(t, c, 5)
	if c.BestHeight() != 5 {
		t.Errorf("BestHeight = %d, want 5", c.BestHeight())
	}
}

func TestProcessDuplicateBlock(t *testing.T) {
	c := newTestChain(t)
	block := mustGenerate(t, c, 1)
	_, err := c.ProcessBlock(block)
	if code, ok := RuleErrorCode(err); !ok || code != ErrDuplicateBlock {
		t.Errorf("duplicate block error = %v, want ErrDuplicateBlock", err)
	}
}

func TestProcessInvalidPoW(t *testing.T) {
	params := HardNetParams()
	c := New(params, WithClock(fixedClock()))
	// Build without solving: at hardnet difficulty an unsolved block has
	// essentially no chance of satisfying the target.
	block := BuildBlock(params, c.BestHash(), 1, 1, fixedClock()(), nil)
	_, err := c.ProcessBlock(block)
	if code, ok := RuleErrorCode(err); !ok || code != ErrHighHash {
		t.Fatalf("unsolved block error = %v, want ErrHighHash", err)
	}
	// PoW failures must be cached so resends hit the invalid cache.
	hash := block.BlockHash()
	if !c.IsKnownInvalid(&hash) {
		t.Error("invalid-PoW block not cached as invalid")
	}
	_, err = c.ProcessBlock(block)
	if code, ok := RuleErrorCode(err); !ok || code != ErrCachedInvalid {
		t.Errorf("resent invalid block error = %v, want ErrCachedInvalid", err)
	}
}

func TestProcessMutatedBlockNotCached(t *testing.T) {
	c := newTestChain(t)
	block, err := GenerateBlock(c, 7, []*wire.MsgTx{spendTx(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate: swap in a different transaction without fixing the merkle root.
	block.Transactions[1] = spendTx(2)
	_, err = c.ProcessBlock(block)
	if code, ok := RuleErrorCode(err); !ok || code != ErrBadMerkleRoot {
		t.Fatalf("mutated block error = %v, want ErrBadMerkleRoot", err)
	}
	if !IsMutation(err) {
		t.Error("IsMutation(bad merkle) = false")
	}
	hash := block.BlockHash()
	if c.IsKnownInvalid(&hash) {
		t.Error("mutated block must NOT be cached as invalid (hash does not commit to mutation)")
	}
}

func TestProcessDuplicateTailMutation(t *testing.T) {
	c := newTestChain(t)
	tx := spendTx(1)
	block, err := GenerateBlock(c, 7, []*wire.MsgTx{tx, tx.Copy()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ProcessBlock(block)
	if code, ok := RuleErrorCode(err); !ok || code != ErrDuplicateTx {
		t.Fatalf("duplicate tail error = %v, want ErrDuplicateTx", err)
	}
	if !IsMutation(err) {
		t.Error("IsMutation(duplicate tail) = false")
	}
}

func TestProcessPrevBlockMissing(t *testing.T) {
	c := newTestChain(t)
	orphanPrev := chainhash.DoubleHashH([]byte("unknown parent"))
	block := BuildBlock(c.Params(), orphanPrev, 1, 1, fixedClock()(), nil)
	if _, err := Solve(block, c.Params().PowLimit); err != nil {
		t.Fatal(err)
	}
	_, err := c.ProcessBlock(block)
	if code, ok := RuleErrorCode(err); !ok || code != ErrPrevBlockMissing {
		t.Fatalf("orphan block error = %v, want ErrPrevBlockMissing", err)
	}
	// Orphans are not invalid: the parent may arrive later.
	hash := block.BlockHash()
	if c.IsKnownInvalid(&hash) {
		t.Error("orphan cached as invalid")
	}
}

func TestProcessPrevBlockInvalid(t *testing.T) {
	c := newTestChain(t)
	// The parent fails proof of work: at simnet difficulty about half of
	// all nonces miss the target, so step to the first one that does.
	parent := BuildBlock(c.Params(), c.BestHash(), 1, 1, fixedClock()(), nil)
	target := CompactToBig(parent.Header.Bits)
	for h := parent.Header.BlockHash(); HashToBig(&h).Cmp(target) <= 0; h = parent.Header.BlockHash() {
		parent.Header.Nonce++
	}
	if _, err := c.ProcessBlock(parent); err == nil {
		t.Fatal("unsolved parent accepted")
	}
	badPrev := parent.BlockHash()
	if !c.IsKnownInvalid(&badPrev) {
		t.Fatal("unsolved parent not cached as invalid")
	}
	block := BuildBlock(c.Params(), badPrev, 2, 1, fixedClock()(), nil)
	if _, err := Solve(block, c.Params().PowLimit); err != nil {
		t.Fatal(err)
	}
	_, err := c.ProcessBlock(block)
	if code, ok := RuleErrorCode(err); !ok || code != ErrPrevBlockInvalid {
		t.Fatalf("child-of-invalid error = %v, want ErrPrevBlockInvalid", err)
	}
	// Descendants of invalid blocks become invalid themselves.
	hash := block.BlockHash()
	if !c.IsKnownInvalid(&hash) {
		t.Error("child of invalid block not cached as invalid")
	}
}

func TestCheckBlockSanityRejections(t *testing.T) {
	c := newTestChain(t)
	now := fixedClock()()

	build := func(mutate func(*wire.MsgBlock)) *wire.MsgBlock {
		block := BuildBlock(c.Params(), c.BestHash(), 1, 1, now, nil)
		mutate(block)
		_, _ = Solve(block, c.Params().PowLimit)
		return block
	}

	tests := []struct {
		name   string
		block  *wire.MsgBlock
		want   ErrorCode
		reMine bool
	}{
		{
			name: "no transactions",
			block: build(func(b *wire.MsgBlock) {
				b.ClearTransactions()
			}),
			want: ErrNoTransactions,
		},
		{
			name: "first tx not coinbase",
			block: func() *wire.MsgBlock {
				b := BuildBlock(c.Params(), c.BestHash(), 1, 1, now, nil)
				b.Transactions[0] = spendTx(1)
				fixMerkle(b)
				_, _ = Solve(b, c.Params().PowLimit)
				return b
			}(),
			want: ErrFirstTxNotCoinbase,
		},
		{
			name: "multiple coinbases",
			block: func() *wire.MsgBlock {
				b := BuildBlock(c.Params(), c.BestHash(), 1, 1, now, nil)
				b.AddTransaction(NewCoinbaseTx(1, 99))
				fixMerkle(b)
				_, _ = Solve(b, c.Params().PowLimit)
				return b
			}(),
			want: ErrMultipleCoinbases,
		},
		{
			name: "timestamp too new",
			block: func() *wire.MsgBlock {
				b := BuildBlock(c.Params(), c.BestHash(), 1, 1, now.Add(3*time.Hour), nil)
				_, _ = Solve(b, c.Params().PowLimit)
				return b
			}(),
			want: ErrTimeTooNew,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := c.CheckBlockSanity(tt.block)
			if code, ok := RuleErrorCode(err); !ok || code != tt.want {
				t.Errorf("CheckBlockSanity = %v, want %s", err, tt.want)
			}
		})
	}
}

func TestForkDoesNotAdvanceTip(t *testing.T) {
	c := newTestChain(t)
	mustGenerate(t, c, 3)
	tipHash := c.BestHash()
	// Build a competing block at height 1 (fork from genesis).
	fork := BuildBlock(c.Params(), c.Params().GenesisHash, 1, 999, fixedClock()(), nil)
	if _, err := Solve(fork, c.Params().PowLimit); err != nil {
		t.Fatal(err)
	}
	height, err := c.ProcessBlock(fork)
	if err != nil {
		t.Fatalf("fork block rejected: %v", err)
	}
	if height != 1 {
		t.Errorf("fork height = %d, want 1", height)
	}
	if c.BestHash() != tipHash || c.BestHeight() != 3 {
		t.Error("shorter fork advanced the tip")
	}
}

func TestCheckHeadersContinuity(t *testing.T) {
	c := newTestChain(t)
	b1, err := GenerateBlock(c, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProcessBlock(b1); err != nil {
		t.Fatal(err)
	}
	b2, err := GenerateBlock(c, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProcessBlock(b2); err != nil {
		t.Fatal(err)
	}

	good := []*wire.BlockHeader{&b1.Header, &b2.Header}
	if !CheckHeadersContinuity(good) {
		t.Error("continuous headers reported discontinuous")
	}
	bad := []*wire.BlockHeader{&b2.Header, &b1.Header}
	if CheckHeadersContinuity(bad) {
		t.Error("discontinuous headers reported continuous")
	}
	if !CheckHeadersContinuity(nil) || !CheckHeadersContinuity(good[:1]) {
		t.Error("trivial sequences must be continuous")
	}
}

func TestHeadersConnect(t *testing.T) {
	c := newTestChain(t)
	b1, err := GenerateBlock(c, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	connecting := []*wire.BlockHeader{&b1.Header}
	if !c.HeadersConnect(connecting) {
		t.Error("header building on genesis reported non-connecting")
	}
	orphanPrev := chainhash.DoubleHashH([]byte("nowhere"))
	orphan := wire.BlockHeader{PrevBlock: orphanPrev}
	if c.HeadersConnect([]*wire.BlockHeader{&orphan}) {
		t.Error("orphan header reported connecting")
	}
	if !c.HeadersConnect(nil) {
		t.Error("empty headers must connect")
	}
}

func TestIsCoinbase(t *testing.T) {
	if !IsCoinbase(NewCoinbaseTx(1, 0)) {
		t.Error("coinbase not recognized")
	}
	if IsCoinbase(spendTx(1)) {
		t.Error("spend recognized as coinbase")
	}
}

func TestCompactBigRoundTrip(t *testing.T) {
	tests := []uint32{0x1d00ffff, 0x207fffff, 0x1b0404cb}
	for _, bits := range tests {
		big := CompactToBig(bits)
		if got := BigToCompact(big); got != bits {
			t.Errorf("BigToCompact(CompactToBig(%#x)) = %#x", bits, got)
		}
	}
	if BigToCompact(big.NewInt(0)) != 0 {
		t.Error("BigToCompact(0) != 0")
	}
}

func TestCompactToBigNegative(t *testing.T) {
	n := CompactToBig(0x03800001) // sign bit set, mantissa 1 at exponent 3 → -1
	if n.Sign() >= 0 {
		t.Errorf("negative compact decoded as %v", n)
	}
	if got := BigToCompact(n); got&0x00800000 == 0 {
		t.Errorf("sign bit lost: %#x", got)
	}
}

func TestCheckProofOfWorkTargetValidation(t *testing.T) {
	h := chainhash.DoubleHashH([]byte("x"))
	limit := SimNetParams().PowLimit
	if err := CheckProofOfWork(&h, 0x00000000, limit); err == nil {
		t.Error("zero target accepted")
	}
	// Target above the limit.
	huge := BigToCompact(new(big.Int).Lsh(big.NewInt(1), 256))
	if err := CheckProofOfWork(&h, huge, limit); err == nil {
		t.Error("target above pow limit accepted")
	}
}

func TestSolveCountsAttempts(t *testing.T) {
	params := SimNetParams()
	c := New(params, WithClock(fixedClock()))
	block := BuildBlock(params, c.BestHash(), 1, 1, fixedClock()(), nil)
	attempts, err := Solve(block, params.PowLimit)
	if err != nil {
		t.Fatal(err)
	}
	if attempts == 0 {
		t.Error("Solve reported zero attempts")
	}
}

func TestGenerateBlockPropertyValid(t *testing.T) {
	c := newTestChain(t)
	f := func(extraNonce uint64) bool {
		block, err := GenerateBlock(c, extraNonce, nil)
		if err != nil {
			return false
		}
		return c.CheckBlockSanity(block) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRuleErrorHelpers(t *testing.T) {
	err := ruleError(ErrHighHash, "nope")
	if err.Error() == "" {
		t.Error("empty error string")
	}
	if code, ok := RuleErrorCode(err); !ok || code != ErrHighHash {
		t.Error("RuleErrorCode failed on direct RuleError")
	}
	wrapped := errorsJoin(err)
	if code, ok := RuleErrorCode(wrapped); !ok || code != ErrHighHash {
		t.Error("RuleErrorCode failed on wrapped RuleError")
	}
	if _, ok := RuleErrorCode(errors.New("other")); ok {
		t.Error("RuleErrorCode matched a non-rule error")
	}
	if ErrorCode(999).String() != "Unknown ErrorCode (999)" {
		t.Errorf("unknown code string = %q", ErrorCode(999))
	}
	for code := ErrHighHash; code <= ErrDuplicateBlock; code++ {
		if code.String() == "" || code.String()[0] != 'E' {
			t.Errorf("code %d has bad name %q", code, code.String())
		}
	}
}

func errorsJoin(err error) error {
	return &wrapErr{err}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }

// spendTx builds a non-coinbase transaction.
func spendTx(n byte) *wire.MsgTx {
	tx := wire.NewMsgTx(wire.TxVersion)
	prev := chainhash.DoubleHashH([]byte{n})
	tx.AddTxIn(wire.NewTxIn(wire.NewOutPoint(&prev, 0), []byte{0x51}, nil))
	tx.AddTxOut(wire.NewTxOut(1000, []byte{0x51}))
	return tx
}

// fixMerkle recomputes the header merkle root after transaction edits.
func fixMerkle(b *wire.MsgBlock) {
	b.Header.MerkleRoot = chainhash.MerkleRoot(b.TxHashes())
}

func TestHeadersAfterFromLocator(t *testing.T) {
	c := newTestChain(t)
	var hashes []chainhash.Hash
	for i := 0; i < 10; i++ {
		block := mustGenerate(t, c, 1)
		hashes = append(hashes, block.BlockHash())
	}

	// Locator at height 4: serve headers 5..10 in ascending order.
	locator := []*chainhash.Hash{&hashes[3]}
	headers := c.HeadersAfter(locator, 2000)
	if len(headers) != 6 {
		t.Fatalf("served %d headers, want 6", len(headers))
	}
	for i, h := range headers {
		if h.BlockHash() != hashes[4+i] {
			t.Errorf("header %d out of order", i)
		}
	}

	// Max is honored, serving the continuation window right after the
	// locator (the syncing peer asks again from its new tip).
	capped := c.HeadersAfter(locator, 2)
	if len(capped) != 2 || capped[0].BlockHash() != hashes[4] || capped[1].BlockHash() != hashes[5] {
		t.Errorf("capped serve wrong: %d headers", len(capped))
	}

	// Unknown locator serves from genesis.
	unknown := chainhash.DoubleHashH([]byte("unknown"))
	all := c.HeadersAfter([]*chainhash.Hash{&unknown}, 2000)
	if len(all) != 10 {
		t.Errorf("unknown locator served %d, want all 10", len(all))
	}

	// Locator at the tip serves nothing.
	tip := c.BestHash()
	if got := c.HeadersAfter([]*chainhash.Hash{&tip}, 2000); len(got) != 0 {
		t.Errorf("tip locator served %d headers", len(got))
	}
}
