package dataset

import (
	"math"

	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/rng"
	"repro/internal/vector"
)

// Paper-scale dataset sizes (Section 4 of the paper).
const (
	CorelN     = 68040
	CoverTypeN = 581012
	WebspamN   = 350000
	MNISTN     = 60000

	CorelDim     = 32
	CoverTypeDim = 54
	WebspamDim   = 254
	MNISTRawDim  = 780
	MNISTBits    = 64 // fingerprint width after SimHash
)

// CorelLike generates an n ≈ 68,040·scale, d = 32 dataset of color-
// histogram-like vectors for the L2 experiments (Figure 2d). Points come
// from a Gaussian mixture whose per-cluster spreads differ by an order of
// magnitude, giving the diverse local density the paper's motivation
// (Figure 1) relies on. Values lie in [0, 1] and each histogram roughly
// sums to 1.
func CorelLike(scale float64, seed uint64) *DenseSet {
	n := scaleN(CorelN, scale, 500)
	r := rng.New(seed)
	const clusters = 60
	centers := make([]vector.Dense, clusters)
	spreads := make([]float64, clusters)
	for c := range centers {
		centers[c] = randomHistogram(CorelDim, r)
		// Log-uniform per-coordinate spreads in [0.005, 0.06]: with d = 32
		// the within-cluster L2 scale is ≈ spread·√(2d) ∈ [0.04, 0.48],
		// bracketing the paper's radius sweep 0.35–0.60.
		spreads[c] = math.Exp(math.Log(0.005) + r.Float64()*(math.Log(0.06)-math.Log(0.005)))
	}
	sizes := powerLawSizes(n, clusters, 1.3, r)

	pts := make([]vector.Dense, 0, n)
	for c, sz := range sizes {
		for i := 0; i < sz; i++ {
			p := make(vector.Dense, CorelDim)
			for j := range p {
				v := float64(centers[c][j]) + r.Normal()*spreads[c]
				p[j] = float32(clamp01(v))
			}
			pts = append(pts, p)
		}
	}
	return &DenseSet{
		Meta: Meta{
			Name: "corel-like", N: len(pts), Dim: CorelDim,
			Metric:     distance.L2Kind,
			PaperRadii: []float64{0.35, 0.40, 0.45, 0.50, 0.55, 0.60},
			Seed:       seed,
		},
		Points: pts,
	}
}

// CoverTypeLike generates an n ≈ 581,012·scale, d = 54 dataset for the L1
// experiments (Figure 2c): ten large-scale cartographic-style continuous
// features (elevation-like scales of hundreds to thousands) plus 44
// binary indicator features, clustered with power-law sizes. The paper's
// radii 3000–4000 fall between within-cluster and background L1 distances.
func CoverTypeLike(scale float64, seed uint64) *DenseSet {
	n := scaleN(CoverTypeN, scale, 1000)
	r := rng.New(seed)
	const clusters = 40
	// Feature scales modeled on CoverType: elevation ~3000±, aspects,
	// slopes, distances in the hundreds; the rest one-hot soil types.
	contScales := []float64{600, 120, 20, 250, 60, 500, 25, 25, 25, 700}
	centers := make([]vector.Dense, clusters)
	tight := make([]float64, clusters)
	binProb := make([][]float64, clusters)
	for c := range centers {
		ctr := make(vector.Dense, CoverTypeDim)
		for j, s := range contScales {
			ctr[j] = float32(2500 + r.Normal()*s)
		}
		centers[c] = ctr
		// Within-cluster noise as a fraction of the feature scale; spans
		// a 6x range so some clusters are much denser than others.
		tight[c] = 0.05 + r.Float64()*0.30
		probs := make([]float64, CoverTypeDim-len(contScales))
		for j := range probs {
			probs[j] = r.Float64() * 0.3
		}
		binProb[c] = probs
	}
	sizes := powerLawSizes(n, clusters, 1.2, r)

	pts := make([]vector.Dense, 0, n)
	for c, sz := range sizes {
		for i := 0; i < sz; i++ {
			p := make(vector.Dense, CoverTypeDim)
			for j, s := range contScales {
				p[j] = centers[c][j] + float32(r.Normal()*s*tight[c])
			}
			for j := len(contScales); j < CoverTypeDim; j++ {
				if r.Float64() < binProb[c][j-len(contScales)] {
					p[j] = 1
				}
			}
			pts = append(pts, p)
		}
	}
	return &DenseSet{
		Meta: Meta{
			Name: "covertype-like", N: len(pts), Dim: CoverTypeDim,
			Metric:     distance.L1Kind,
			PaperRadii: []float64{3000, 3200, 3400, 3600, 3800, 4000},
			Seed:       seed,
		},
		Points: pts,
	}
}

// WebspamLike generates an n ≈ 350,000·scale, d = 254 sparse dataset for
// the cosine experiments (Figures 2b and 3). Its defining property — the
// reason the paper's hybrid wins on Webspam — is a power-law cluster-size
// distribution with a few giant near-duplicate clusters (spam pages
// generated from shared templates): a query in a giant cluster has output
// size Θ(n) at radii as small as 0.05–0.1, while most queries report
// almost nothing.
func WebspamLike(scale float64, seed uint64) *SparseSet {
	n := scaleN(WebspamN, scale, 1000)
	r := rng.New(seed)
	// Three designed "template" clusters — spam pages generated from
	// shared templates — dominate the corpus, with tightness (target
	// pairwise cosine distance δ) chosen so they straddle the hybrid
	// decision threshold at different radii of the paper's sweep. With
	// the paper's β/α = 10 and L = 50, a cluster holding fraction f of
	// the points turns "hard" (linear search wins) once its within-
	// cluster bucket-collision rate p₁(δ)^k(r) exceeds 10(1−f)/(50f);
	// since k(r) falls as r grows, looser giants activate at larger
	// radii. This is what produces Figure 3's rising linear-search-call
	// percentage:
	//
	//   giant A: 20% of n, δ ≈ 0.0002 (near-exact dups) — hard from r = 0.05;
	//   giant B: 35% of n, δ ≈ 0.008 — turns hard around r ≈ 0.08;
	//   giant C: 10% of n, δ ≈ 0.03  — big output but never hard (f < 1/6).
	//
	// The remaining 35% is a power-law tail of small topic clusters, so
	// most queries report almost nothing (Figure 3's tiny min output).
	giants := []struct{ frac, delta float64 }{
		{0.20, 0.0002},
		{0.35, 0.008},
		{0.10, 0.03},
	}
	pts := make([]vector.Sparse, 0, n)
	for _, g := range giants {
		proto := randomSparseDoc(WebspamDim, 30+r.Intn(40), r)
		perturb := math.Sqrt(3 * g.delta)
		sz := int(g.frac * float64(n))
		for i := 0; i < sz; i++ {
			pts = append(pts, perturbDoc(proto, perturb, r))
		}
	}
	const tailClusters = 200
	tail := powerLawSizes(n-len(pts), tailClusters, 1.1, r)
	for _, sz := range tail {
		proto := randomSparseDoc(WebspamDim, 30+r.Intn(40), r)
		perturb := math.Sqrt(3 * (0.005 + 0.25*r.Float64()))
		for i := 0; i < sz; i++ {
			pts = append(pts, perturbDoc(proto, perturb, r))
		}
	}
	return &SparseSet{
		Meta: Meta{
			Name: "webspam-like", N: len(pts), Dim: WebspamDim,
			Metric:     distance.CosineKind,
			PaperRadii: []float64{0.05, 0.06, 0.07, 0.08, 0.09, 0.10},
			Seed:       seed,
		},
		Points: pts,
	}
}

// MNISTLike generates an n ≈ 60,000·scale dataset of 64-bit SimHash
// fingerprints for the Hamming experiments (Figure 2a), reproducing the
// paper's preprocessing: digit-like 780-dimensional binary prototypes with
// class-dependent pixel noise, SimHashed to 64 bits. Within-class
// fingerprint distances land in the paper's radius range 12–17.
func MNISTLike(scale float64, seed uint64) *BinarySet {
	n := scaleN(MNISTN, scale, 500)
	r := rng.New(seed)
	const classes = 10
	protos := make([]vector.Dense, classes)
	for c := range protos {
		// A digit-like prototype: ~20% ink with spatial correlation
		// (runs of on-pixels) rather than iid noise.
		protos[c] = inkPrototype(MNISTRawDim, 0.2, r)
	}
	fp := lsh.NewFingerprinter(MNISTRawDim, MNISTBits, seed^0x5eed)

	pts := make([]vector.Binary, 0, n)
	sizes := powerLawSizes(n, classes, 0.3, r)
	for c, sz := range sizes {
		// Class-dependent noise: how much an instance deviates from the
		// prototype before fingerprinting (writer variation).
		noise := 0.05 + r.Float64()*0.20
		for i := 0; i < sz; i++ {
			x := protos[c].Clone()
			for j := range x {
				if r.Float64() < noise {
					x[j] = 1 - x[j]
				}
			}
			pts = append(pts, fp.Fingerprint(x))
		}
	}
	return &BinarySet{
		Meta: Meta{
			Name: "mnist-like", N: len(pts), Dim: MNISTBits,
			Metric:     distance.HammingKind,
			PaperRadii: []float64{12, 13, 14, 15, 16, 17},
			Seed:       seed,
		},
		Points: pts,
	}
}

// powerLawSizes partitions n into k cluster sizes proportional to
// rank^(−exponent), shuffled so cluster order carries no signal. Every
// cluster gets at least one point; the first cluster absorbs rounding.
func powerLawSizes(n, k int, exponent float64, r *rng.Rand) []int {
	if k > n {
		k = n
	}
	weights := make([]float64, k)
	var total float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -exponent)
		total += weights[i]
	}
	sizes := make([]int, k)
	assigned := 0
	for i := range sizes {
		sizes[i] = int(float64(n) * weights[i] / total)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		assigned += sizes[i]
	}
	sizes[0] += n - assigned // may be negative drift; fix below
	if sizes[0] < 1 {
		// Redistribute: steal from the largest remaining clusters.
		deficit := 1 - sizes[0]
		sizes[0] = 1
		for i := 1; i < k && deficit > 0; i++ {
			take := sizes[i] - 1
			if take > deficit {
				take = deficit
			}
			sizes[i] -= take
			deficit -= take
		}
	}
	r.Shuffle(sizes)
	return sizes
}

// randomHistogram returns a peaky normalized histogram: log-normal bin
// weights with σ = 2.5 make a handful of bins dominate, like real color
// histograms where a few colors carry most of the mass. (A flat
// Dirichlet(1) would put every point within ≈0.25 of every other, making
// the paper's radii 0.35–0.60 degenerate.)
func randomHistogram(dim int, r *rng.Rand) vector.Dense {
	p := make(vector.Dense, dim)
	var sum float64
	for j := range p {
		v := math.Exp(2.5 * r.Normal())
		p[j] = float32(v)
		sum += v
	}
	inv := float32(1 / sum)
	for j := range p {
		p[j] *= inv
	}
	return p
}

// randomSparseDoc returns a unit-norm sparse "document" with nnz terms and
// tf-idf-like (exponential) weights.
func randomSparseDoc(dim, nnz int, r *rng.Rand) vector.Sparse {
	idx := make([]int32, nnz)
	val := make([]float32, nnz)
	for i, j := range r.Sample(dim, nnz) {
		idx[i] = int32(j)
		val[i] = float32(0.1 + r.Exp())
	}
	return vector.NewSparse(dim, idx, val).Normalize()
}

// perturbDoc returns a near-duplicate of doc: term weights are jittered
// multiplicatively by ±perturb and, with probability perturb, one random
// term is added. The result is re-normalized; its cosine distance to doc
// grows smoothly with perturb.
func perturbDoc(doc vector.Sparse, perturb float64, r *rng.Rand) vector.Sparse {
	idx := make([]int32, len(doc.Idx), len(doc.Idx)+1)
	val := make([]float32, len(doc.Val), len(doc.Val)+1)
	copy(idx, doc.Idx)
	for i, v := range doc.Val {
		val[i] = v * float32(1+(2*r.Float64()-1)*perturb)
	}
	if r.Float64() < perturb {
		idx = append(idx, int32(r.Intn(doc.Dim)))
		val = append(val, float32(0.1+r.Exp()*perturb))
	}
	return vector.NewSparse(doc.Dim, idx, val).Normalize()
}

// inkPrototype returns a 0/1 vector with the given ink density where set
// pixels come in runs (a crude model of pen strokes), so prototypes
// are spatially correlated like digit images rather than iid noise.
func inkPrototype(dim int, density float64, r *rng.Rand) vector.Dense {
	p := make(vector.Dense, dim)
	inked := 0
	target := int(density * float64(dim))
	for inked < target {
		start := r.Intn(dim)
		runLen := 2 + r.Intn(10)
		for j := start; j < dim && j < start+runLen && inked < target; j++ {
			if p[j] == 0 {
				p[j] = 1
				inked++
			}
		}
	}
	return p
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
