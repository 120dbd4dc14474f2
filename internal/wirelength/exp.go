package wirelength

import "math"

// expNeg is the fused kernels' exponential, for x <= 0 only: every WA/LSE
// argument is a pin's distance below its net's maximum, or above its
// minimum, over gamma. Cody-Waite reduction x = k*ln2/128 + r with
// |r| <= ln2/256 and ln2/128 split so that k*expLnHi is exact; e^r from
// its degree-5 Taylor polynomial (remainder below 1e-18); 2^(k/128) as
// the table entry of k mod 128 with floor(k/128) added to the exponent
// field. Within 2 ulp of math.Exp on [expCutoff, 0], never above 1,
// exactly 1 at +-0, NaN for NaN. Below expCutoff, where the exponent
// field would run out, it returns 0 and not the subnormal tail: every sum
// the kernels add a term to holds its extreme pin's exact 1, and e^-708 is
// three hundred orders of magnitude below that sum's last bit.
func expNeg(x float64) float64 {
	if !(x >= expCutoff) { // below the cutoff, -Inf or NaN
		if x != x {
			return x
		}
		return 0
	}
	k := int(x*expInvLn - 0.5) // nearest: the conversion truncates toward 0 and x <= 0
	kf := float64(k)
	r := (x - kf*expLnHi) - kf*expLnLo
	p := r + r*r*(1.0/2+r*(1.0/6+r*(1.0/24+r*(1.0/120))))
	t := &expTab[k&127]
	return math.Float64frombits(math.Float64bits(t[0]+(t[1]+t[0]*p)) + uint64(k>>7)<<52)
}

const (
	expCutoff = -708 // e^-708 = 3.3e-308 is a normal number
	expInvLn  = 128 / math.Ln2
	expLnHi   = 6.93147180369123816490e-01 / 128 // 32 significant bits of ln2
	expLnLo   = 1.90821492927058770002e-10 / 128
)

// expTab[j] is 2^(j/128) as a double and what the double leaves out, by
// repeated double-double multiplication with 2^(1/128).
var expTab = func() (t [128][2]float64) {
	const cHi, cLo = 0x1.0163da9fb3335p+0, 0x1.b61299ab8cdb7p-54
	hi, lo := 1.0, 0.0
	for j := range t {
		t[j] = [2]float64{hi, lo}
		p := hi * cHi
		e := math.FMA(hi, cHi, -p) + (hi*cLo + lo*cHi)
		hi = p + e
		lo = e - (hi - p)
	}
	return t
}()
