// Package dataset provides synthetic substitutes for the four real-world
// datasets of the paper's evaluation — Corel Images, CoverType, Webspam
// and MNIST — plus query-set splitting and gob persistence.
//
// The environment is offline, so each generator reproduces the properties
// the paper's experiments actually exercise: size, dimensionality, the
// metric's distance scale, and above all the *local density structure*
// (Webspam's power-law near-duplicate clusters are what make its queries
// "hard" and drive the paper's headline Figure 2b/3 result). DESIGN.md §3
// documents each substitution.
package dataset

import (
	"encoding/gob"
	"fmt"
	"os"

	"repro/internal/distance"
	"repro/internal/rng"
	"repro/internal/vector"
)

// Meta describes a generated dataset.
type Meta struct {
	// Name identifies the generator ("corel-like", …).
	Name string
	// N is the number of points, Dim the ambient dimension.
	N, Dim int
	// Metric is the distance measure the paper pairs with this dataset.
	Metric distance.Kind
	// PaperRadii are the x-axis radii of the dataset's Figure-2 panel.
	PaperRadii []float64
	// Seed reproduces the generation.
	Seed uint64
}

// DenseSet is a dataset of dense vectors (Corel-like, CoverType-like).
type DenseSet struct {
	Meta   Meta
	Points []vector.Dense
}

// SparseSet is a dataset of sparse vectors (Webspam-like).
type SparseSet struct {
	Meta   Meta
	Points []vector.Sparse
}

// BinarySet is a dataset of binary vectors (MNIST-like fingerprints).
type BinarySet struct {
	Meta   Meta
	Points []vector.Binary
}

// SplitQueries removes nq points, chosen uniformly at random, from points
// and returns (data, queries) — the paper's protocol ("we randomly remove
// 100 points and use it as the query set"). The input slice is not
// modified. It panics if nq >= len(points).
func SplitQueries[P any](points []P, nq int, seed uint64) (data, queries []P) {
	if nq <= 0 || nq >= len(points) {
		panic(fmt.Sprintf("dataset: SplitQueries nq = %d with %d points", nq, len(points)))
	}
	r := rng.New(seed)
	perm := r.Perm(len(points))
	queries = make([]P, nq)
	data = make([]P, 0, len(points)-nq)
	isQuery := make([]bool, len(points))
	for i := 0; i < nq; i++ {
		queries[i] = points[perm[i]]
		isQuery[perm[i]] = true
	}
	for i, p := range points {
		if !isQuery[i] {
			data = append(data, p)
		}
	}
	return data, queries
}

// scaleN scales a paper-size n down (or up) and floors the result at min.
func scaleN(n int, scale float64, min int) int {
	s := int(float64(n) * scale)
	if s < min {
		return min
	}
	return s
}

// SaveGob writes v to path with encoding/gob.
func SaveGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("dataset: encoding %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dataset: closing %s: %w", path, err)
	}
	return nil
}

// LoadGob reads v from path with encoding/gob.
func LoadGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("dataset: decoding %s: %w", path, err)
	}
	return nil
}
