// Package rng provides small, fast, deterministic pseudo-random number
// generators for workload generation. Every simulated thread owns its own
// generator seeded from the experiment seed, which makes whole-machine runs
// reproducible bit-for-bit regardless of scheduling.
package rng

// Rand is an xorshift64* generator. The zero value is not valid; use New.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state.
func (r *Rand) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	// Scramble the seed with splitmix64 so that close seeds diverge.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	r.state = z ^ (z >> 31)
	if r.state == 0 {
		r.state = 1
	}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Uint32 returns the next 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1, using the polar Box-Muller method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		// math.Sqrt and math.Log are avoided to keep this package
		// dependency-light; use the identity via iterated refinement.
		return u * polarScale(s)
	}
}

// polarScale computes sqrt(-2*ln(s)/s) with stdlib math.
func polarScale(s float64) float64 {
	return sqrt(-2 * ln(s) / s)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes the slice in place (Fisher-Yates).
func (r *Rand) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Zipf draws values in [0, n) with a Zipfian distribution of exponent s:
// P(k) is proportional to 1/(k+1)^s. It precomputes the CDF once and samples
// by binary search, which is exact and deterministic given the Rand stream.
type Zipf struct {
	r   *Rand
	cdf []float64
}

// NewZipf returns a Zipf sampler over [0, n) with skew s > 0. n must be >= 1.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n < 1 {
		panic("rng: Zipf with n < 1")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / pow(float64(k+1), s)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{r: r, cdf: cdf}
}

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
