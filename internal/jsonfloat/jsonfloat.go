// Package jsonfloat writes a float64 the way encoding/json does, at the
// cost of its digits: the shortest decimal that reads back as the same
// float64 — of those, the closest — is found with Schubfach (R. Giulietti,
// "The Schubfach way to render doubles", 2020), which picks the decimal
// Ryū (strconv's shortest) picks without trimming it digit by digit.
package jsonfloat

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
)

// Append appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in 'f' notation from 1e-6 up to 1e21 and
// as d.ddde±x otherwise, the exponent without a leading zero. f must be
// finite; encoding/json refuses NaN and ±Inf, and so must the caller.
func Append(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	v, e := shortest(b &^ (1 << 63))
	return appendDecimal(dst, b>>63 != 0, v, e)
}

const (
	minQ       = -1074     // the binary exponent of a subnormal: c·2^minQ
	minK, maxK = -324, 292 // flog10pow2 over [minQ, 971], every normal's q
)

// shortest returns the decimal v·10^e that Go reads back as the float64
// of bits b (sign cleared) with the fewest digits, of those the closest,
// ties to an even v. A nonzero v has no trailing zero; 0 is 0·10^0.
func shortest(b uint64) (v uint64, e int) {
	be, frac := int(b>>52), b&(1<<52-1)
	if be == 0 {
		if frac == 0 {
			return 0, 0
		}
		return schubfach(minQ, frac)
	}
	return schubfach(be-1075, frac|1<<52)
}

// schubfach returns the shortest decimal in the rounding interval of
// c·2^q, of several the closest, as shortest does. Everything is scaled by
// 4 (cb = 4c) so the interval's ends, c ± 1/2 — c − 1/4 below a power of
// two, where the spacing halves — are integers; an odd c's interval is
// open, as round-half-even sends its ends to the even neighbours.
func schubfach(q int, c uint64) (uint64, int) {
	open := c & 1
	cb := c << 2
	cbl, cbr, k := cb-2, cb+2, flog10pow2(q)
	if c == 1<<52 && q != minQ {
		cbl, k = cb-1, flog10ThreeQuartersPow2(q)
	}
	// Times 10^−k (through g), c·2^q is vb/4 and its interval runs from
	// vbl/4 to vbr/4, between 1 and 10 wide: it holds at most one multiple
	// of ten, and one or both of s = ⌊vb/4⌋ and s + 1.
	h := q + flog2pow10(-k) + 2
	g1, g0 := g[k-minK][0], g[k-minK][1]
	vb, vbl, vbr := roundOdd(g1, g0, cb<<h), roundOdd(g1, g0, cbl<<h), roundOdd(g1, g0, cbr<<h)
	s := vb >> 2
	// A multiple of ten is one digit shorter than any other candidate.
	// Below 10, s/10·10 is 0, which the interval never holds (vbl ≥ 1).
	if lo := s / 10 * 10; vbl+open <= lo<<2 {
		return trimZeros(lo/10, k+1)
	} else if hi := lo + 10; hi<<2+open <= vbr {
		return trimZeros(hi/10, k+1)
	}
	t := s + 1
	sIn, tIn := vbl+open <= s<<2, t<<2+open <= vbr
	if sIn != tIn {
		if sIn {
			return s, k
		}
		return t, k
	}
	// Both: the closer, and on a tie the even one.
	if mid := s<<2 + 2; vb < mid || vb == mid && s&1 == 0 {
		return s, k
	}
	return t, k
}

// trimZeros moves v's trailing zeros into the exponent e.
func trimZeros(v uint64, e int) (uint64, int) {
	for v%10 == 0 {
		v /= 10
		e++
	}
	return v, e
}

// roundOdd returns g·cp / 2^127 for g = g1·2^63 + g0, truncated and with
// its lowest bit set when anything was cut off. The paper shows the
// comparisons schubfach makes on such values are exact.
func roundOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | ((z&(1<<63-1) + 1<<63 - 1) >> 63)
}

// flog10pow2 is ⌊q·log10 2⌋, flog10ThreeQuartersPow2 ⌊log10(3/4·2^q)⌋ and
// flog2pow10 ⌊e·log2 10⌋, each exact on the exponents a float64 has. The
// multipliers are ⌊2^41·log10 2⌋, ⌊2^41·log10(4/3)⌋ and ⌊2^38·log2 10⌋.
func flog10pow2(q int) int { return int(int64(q) * 661971961083 >> 41) }

func flog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661971961083 - 274743187321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// g holds, for each k in [minK, maxK], ⌊10^−k·2^−r⌋ + 1 with r chosen so
// that 2^125 ≤ g < 2^126, as g>>63 and g's low 63 bits.
var g = table()

func table() (t [maxK - minK + 1][2]uint64) {
	one, ten := big.NewInt(1), big.NewInt(10)
	for k := minK; k <= maxK; k++ {
		num, den := big.NewInt(1), big.NewInt(1)
		if k < 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		// 2^−r = 2^(125 − ⌊log2 10^−k⌋)
		if sh := 125 - flog2pow10(-k); sh >= 0 {
			num.Lsh(num, uint(sh))
		} else {
			den.Lsh(den, uint(-sh))
		}
		n := num.Add(num.Quo(num, den), one)
		t[k-minK] = [2]uint64{new(big.Int).Rsh(n, 63).Uint64(), n.Uint64() & (1<<63 - 1)}
	}
	return t
}

// maxLen bounds what appendDecimal appends: a sign, "0.00000" and 17
// digits.
const maxLen = 1 + 7 + 17

// appendDecimal appends ±v·10^e in encoding/json's notation, writing the
// digits where they go.
func appendDecimal(dst []byte, neg bool, v uint64, e int) []byte {
	dst = slices.Grow(dst, maxLen)
	if neg {
		dst = append(dst, '-')
	}
	n := decimalLen(v)
	x := n - 1 + e // the power of ten of the first digit
	i := len(dst)
	switch {
	case v != 0 && (x < -6 || x > 20): // below 1e-6, or 1e21 and up
		// The digits one place to the right, the first moved over the point.
		dst = dst[:i+1+n]
		putDigits(dst[i+1:], v)
		dst[i], dst[i+1] = dst[i+1], '.'
		if n == 1 {
			dst = dst[:i+1]
		}
		sign := byte('+')
		if x < 0 {
			sign, x = '-', -x
		}
		dst = append(dst, 'e', sign)
		i = len(dst)
		dst = dst[:i+decimalLen(uint64(x))]
		putDigits(dst[i:], uint64(x))
	case e >= 0:
		dst = dst[:i+n]
		putDigits(dst[i:], v)
		dst = append(dst, "00000000000000000000"[:e]...)
	case x >= 0:
		dst = dst[:i+1+n]
		putDigits(dst[i+1:], v)
		copy(dst[i:], dst[i+1:i+2+x])
		dst[i+1+x] = '.'
	default:
		dst = append(dst, "0.00000"[:1-x]...)
		i = len(dst)
		dst = dst[:i+n]
		putDigits(dst[i:], v)
	}
	return dst
}

// pow10 holds 10^0 through 10^19, every power of ten a uint64 has.
var pow10 = func() (t [20]uint64) {
	t[0] = 1
	for i := 1; i < len(t); i++ {
		t[i] = t[i-1] * 10
	}
	return t
}()

// decimalLen returns the number of v's decimal digits, 1 for 0.
func decimalLen(v uint64) int {
	n := bits.Len64(v) * 1233 >> 12 // ⌊bits·log10 2⌋, log10 2 as 1233/4096
	if v >= pow10[n] {
		n++
	}
	return max(n, 1)
}

// digitPairs holds "00" through "99", each pair as the little-endian
// uint16 of its two ASCII digits.
var digitPairs = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// putDigits writes v's decimal digits into b, which has room for exactly
// them, from the right, two at a time.
func putDigits(b []byte, v uint64) {
	i := len(b)
	for v >= 100 {
		i -= 2
		put2(b[i:], v%100)
		v /= 100
	}
	if v >= 10 {
		put2(b[i-2:], v)
	} else {
		b[i-1] = '0' + byte(v)
	}
}

// put2 writes x < 100 as two digits.
func put2(b []byte, x uint64) { binary.LittleEndian.PutUint16(b, digitPairs[x]) }
