package blockchain

import (
	"fmt"
	"sync"
	"time"

	"banscore/internal/chainhash"
	"banscore/internal/wire"
)

// blockNode is one entry of the in-memory block index.
type blockNode struct {
	hash   chainhash.Hash
	height int32
	header wire.BlockHeader
	parent *blockNode
}

// Chain is the simplified chain state: a block index, an invalid-block
// cache, and a best tip. It is safe for concurrent use.
type Chain struct {
	params *Params
	now    func() time.Time

	mu      sync.RWMutex
	index   map[chainhash.Hash]*blockNode
	invalid map[chainhash.Hash]ErrorCode
	tip     *blockNode
}

// Option configures a Chain.
type Option func(*Chain)

// WithClock injects a time source, letting tests and the simulation control
// "now" for timestamp validation.
func WithClock(now func() time.Time) Option {
	return func(c *Chain) { c.now = now }
}

// New returns a Chain containing only the genesis block of params.
func New(params *Params, opts ...Option) *Chain {
	c := &Chain{
		params:  params,
		now:     time.Now,
		index:   make(map[chainhash.Hash]*blockNode),
		invalid: make(map[chainhash.Hash]ErrorCode),
	}
	for _, opt := range opts {
		opt(c)
	}
	genesis := &blockNode{
		hash:   params.GenesisHash,
		height: 0,
		header: params.GenesisBlock.Header,
	}
	c.index[genesis.hash] = genesis
	c.tip = genesis
	return c
}

// Params returns the chain parameters.
func (c *Chain) Params() *Params { return c.params }

// BestHash returns the hash of the current tip.
func (c *Chain) BestHash() chainhash.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tip.hash
}

// BestHeight returns the height of the current tip.
func (c *Chain) BestHeight() int32 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tip.height
}

// HaveBlock reports whether the block hash is in the index.
func (c *Chain) HaveBlock(hash *chainhash.Hash) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.index[*hash]
	return ok
}

// IsKnownInvalid reports whether the block hash is cached as invalid.
func (c *Chain) IsKnownInvalid(hash *chainhash.Hash) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.invalid[*hash]
	return ok
}

// CheckBlockSanity performs the context-free validation of a block: proof of
// work, merkle commitment (mutation detection), coinbase structure, size,
// and timestamp bounds. It is exported because the attacker-cost experiments
// measure it in isolation.
func (c *Chain) CheckBlockSanity(block *wire.MsgBlock) error {
	header := &block.Header
	hash := header.BlockHash()

	if err := CheckProofOfWork(&hash, header.Bits, c.params.PowLimit); err != nil {
		return err
	}

	if len(block.Transactions) == 0 {
		return ruleError(ErrNoTransactions, "block does not contain any transactions")
	}
	if size := block.SerializeSize(); size > c.params.MaxBlockSize {
		return ruleError(ErrBlockTooBig, fmt.Sprintf("block size %d exceeds max %d", size, c.params.MaxBlockSize))
	}

	if !isCoinbase(block.Transactions[0]) {
		return ruleError(ErrFirstTxNotCoinbase, "first transaction is not a coinbase")
	}
	for i, tx := range block.Transactions[1:] {
		if isCoinbase(tx) {
			return ruleError(ErrMultipleCoinbases, fmt.Sprintf("transaction %d is a second coinbase", i+1))
		}
	}

	// Merkle commitment: a mismatch or a duplicated tail means the block
	// data was mutated in transit — the Table I rule scoring 100.
	txHashes := block.TxHashes()
	if chainhash.HasDuplicateTail(txHashes) {
		return ruleError(ErrDuplicateTx, "block transaction list has a duplicated tail (merkle malleation)")
	}
	merkle := chainhash.MerkleRoot(txHashes)
	if merkle != header.MerkleRoot {
		return ruleError(ErrBadMerkleRoot,
			fmt.Sprintf("block merkle root %s does not match calculated %s", header.MerkleRoot, merkle))
	}

	if header.Timestamp.After(c.now().Add(c.params.MaxTimeOffset)) {
		return ruleError(ErrTimeTooNew, "block timestamp too far in the future")
	}
	return nil
}

// ProcessBlock validates the block and, when valid, connects it to the
// index, advancing the tip if it extends the best chain. The returned
// RuleError codes map directly onto the Table I BLOCK ban rules.
func (c *Chain) ProcessBlock(block *wire.MsgBlock) (int32, error) {
	hash := block.BlockHash()

	c.mu.Lock()
	if code, ok := c.invalid[hash]; ok {
		c.mu.Unlock()
		return 0, ruleError(ErrCachedInvalid, fmt.Sprintf("block %s cached as invalid (%s)", hash, code))
	}
	if _, ok := c.index[hash]; ok {
		c.mu.Unlock()
		return 0, ruleError(ErrDuplicateBlock, fmt.Sprintf("already have block %s", hash))
	}
	c.mu.Unlock()

	if err := c.CheckBlockSanity(block); err != nil {
		// Mutated blocks are NOT cached as invalid: the hash does not
		// commit to the mutation, so an honest copy of the same block
		// may still arrive. Everything else is cached.
		if !IsMutation(err) {
			if code, ok := RuleErrorCode(err); ok {
				c.mu.Lock()
				c.invalid[hash] = code
				c.mu.Unlock()
			}
		}
		return 0, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()

	prevHash := block.Header.PrevBlock
	if _, bad := c.invalid[prevHash]; bad {
		c.invalid[hash] = ErrPrevBlockInvalid
		return 0, ruleError(ErrPrevBlockInvalid, fmt.Sprintf("previous block %s is invalid", prevHash))
	}
	parent, ok := c.index[prevHash]
	if !ok {
		return 0, ruleError(ErrPrevBlockMissing, fmt.Sprintf("previous block %s is not known", prevHash))
	}

	node := &blockNode{
		hash:   hash,
		height: parent.height + 1,
		header: block.Header,
		parent: parent,
	}
	c.index[hash] = node
	if node.height > c.tip.height {
		c.tip = node
	}
	return node.height, nil
}

// CheckHeadersContinuity verifies that a HEADERS sequence is internally
// continuous (each entry's PrevBlock is the previous entry's hash). A break
// is the "Non-continuous headers sequence" misbehavior (+20 per Table I).
func CheckHeadersContinuity(headers []*wire.BlockHeader) bool {
	for i := 1; i < len(headers); i++ {
		prevHash := headers[i-1].BlockHash()
		if headers[i].PrevBlock != prevHash {
			return false
		}
	}
	return true
}

// HeadersConnect reports whether the first header of a HEADERS sequence
// connects to a known block. Repeated non-connecting deliveries accumulate
// toward the "10 non-connecting headers" misbehavior (+20 per Table I).
func (c *Chain) HeadersConnect(headers []*wire.BlockHeader) bool {
	if len(headers) == 0 {
		return true
	}
	return c.HaveBlock(&headers[0].PrevBlock)
}

// isCoinbase reports whether tx is a coinbase: one input spending the null
// outpoint.
func isCoinbase(tx *wire.MsgTx) bool {
	if len(tx.TxIn) != 1 {
		return false
	}
	prev := &tx.TxIn[0].PreviousOutPoint
	return prev.Index == wire.MaxPrevOutIndex && prev.Hash == chainhash.ZeroHash
}

// IsCoinbase exposes the coinbase test for other packages.
func IsCoinbase(tx *wire.MsgTx) bool { return isCoinbase(tx) }

// HeadersAfter returns up to max best-chain headers strictly after the first
// locator hash found on the best chain (genesis when none matches). It backs
// the node's GETHEADERS handler.
func (c *Chain) HeadersAfter(locator []*chainhash.Hash, max int) []*wire.BlockHeader {
	c.mu.RLock()
	defer c.mu.RUnlock()

	known := make(map[chainhash.Hash]struct{}, len(locator))
	for _, h := range locator {
		known[*h] = struct{}{}
	}

	// Walk the best chain from the tip back to the fork point, collecting
	// headers, then reverse into ascending order.
	var rev []*wire.BlockHeader
	for node := c.tip; node != nil && node.height > 0; node = node.parent {
		if _, hit := known[node.hash]; hit {
			break
		}
		header := node.header
		rev = append(rev, &header)
	}
	if len(rev) > max && max >= 0 {
		rev = rev[len(rev)-max:]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
