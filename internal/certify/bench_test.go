package certify

import (
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
)

// BenchmarkCertify measures a full certification pass over each fixture:
// pattern enumeration, corner bisection and the complete scenario sweep
// through the compiled dispatcher. Fig1/Fig8 run exhaustive mode, the
// cruise controller the frontier degradation. Design certifies the six
// trees of the repo benchmark's design workload at its budget, all in
// frontier mode: the certify step of perfbench's design workload, one
// application after another.
func BenchmarkCertify(b *testing.B) {
	for _, tc := range []struct {
		name string
		app  *model.Application
		m    int
	}{
		{"Fig1", apps.Fig1(), 12},
		{"Fig8", apps.Fig8(), 16},
		{"CruiseController", apps.CruiseController(), 39},
	} {
		tree, err := core.FTQS(tc.app, core.FTQSOptions{M: tc.m})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) { benchCertify(b, []*core.Tree{tree}, Config{}) })
	}
	b.Run("Design", func(b *testing.B) {
		trees, err := designTrees()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		benchCertify(b, trees, Config{Budget: designBudget})
	})
}

func benchCertify(b *testing.B, trees []*core.Tree, cfg Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, tree := range trees {
			rep, err := Certify(tree, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Scenarios == 0 {
				b.Fatal("empty certification")
			}
		}
	}
}
