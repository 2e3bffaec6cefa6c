package stats

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator, reimplemented
// so that seeding is cheap and happens in place. Every draw equals the
// draw rand.NewSource returns for the same seed.
//
// math/rand seeds its 607-word state with a chain of 1,841 dependent
// steps x ← 48271·x mod (2³¹−1), each a division. Value k of that chain is
// 48271^(21+k)·seed mod (2³¹−1), so Seed multiplies the reduced seed by
// precomputed powers instead: 1,821 independent multiplies with a
// Mersenne-prime reduction, into a state array that is reused.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Mersenne prime of the seeding chain
	seedMult = 48271
)

var (
	// seedPow[i] holds the multipliers of state word i: 48271^(21+k)
	// mod (2³¹−1) for k = 3i, 3i+1, 3i+2.
	seedPow [rngLen][3]uint64
	// seedCooked is the table math/rand XORs into each seeded word.
	seedCooked [rngLen]int64
)

func init() {
	m := uint64(1)
	for k := 0; k < 20; k++ {
		m = mulMod(m, seedMult)
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			m = mulMod(m, seedMult)
			seedPow[i][j] = m
		}
	}

	// math/rand does not export its table, so recover it from seed 1.
	// The first 607 draws write every state word exactly once, so they
	// are the whole state after them; undoing the additions in reverse
	// order gives the state right after seeding, which is seed 1's chain
	// XOR the table.
	ref := rand.NewSource(1).(rand.Source64)
	var s source
	s.feed = rngLen - rngTap
	for range s.vec {
		s.advance()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range s.vec {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap = (s.tap + 1) % rngLen
		s.feed = (s.feed + 1) % rngLen
	}
	// With the table still zero, Seed(1) leaves just seed 1's chain.
	var chain source
	chain.Seed(1)
	for i := range seedCooked {
		seedCooked[i] = s.vec[i] ^ chain.vec[i]
	}
}

// mulMod returns a·x mod (2³¹−1) for a, x < 2³¹−1: the product fits in 62
// bits, and folding its high bits onto its low bits leaves less than
// twice the modulus.
func mulMod(a, x uint64) uint64 {
	p := a * x
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Seed sets the state math/rand's Seed would, for any seed.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	// Word i packs chain values 3i, 3i+1 and 3i+2 at bit offsets 40, 20
	// and 0; the first one's top bits shift out, as in math/rand.
	x := uint64(seed)
	for i := range s.vec {
		m := &seedPow[i]
		u := mulMod(m[0], x)<<40 ^ mulMod(m[1], x)<<20 ^ mulMod(m[2], x)
		s.vec[i] = int64(u) ^ seedCooked[i]
	}
}

// advance steps the tap and feed indices back one word.
func (s *source) advance() {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
}

// Uint64 returns the next 64 random bits.
func (s *source) Uint64() uint64 {
	s.advance()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next draw with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
