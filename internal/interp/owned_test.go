package interp

import (
	"slices"
	"testing"
)

// TestOwnedItersMatchesFilterScan pins the strided lane enumeration to the
// filter it replaced: scan every iteration and keep those whose gang is gi
// (t%G) and whose worker is w ((t/G)%W), or all of them when the loop runs
// redundantly. Same set, same ascending order, for every lane of every
// shape, with and without the gang and worker levels.
func TestOwnedItersMatchesFilterScan(t *testing.T) {
	for total := int64(0); total <= 40; total++ {
		for _, gangs := range []int64{1, 2, 3, 8} {
			for _, workers := range []int64{1, 2, 5} {
				for _, hasGang := range []bool{false, true} {
					for _, hasWorker := range []bool{false, true} {
						for _, redundant := range []bool{false, true} {
							G, W := int64(1), int64(1)
							if hasGang {
								G = gangs
							}
							if hasWorker {
								W = workers
							}
							for gi := int64(0); gi < G; gi++ {
								for w := int64(0); w < W; w++ {
									var want, got []int64
									for t := int64(0); t < total; t++ {
										if !redundant && (t%G != gi || (t/G)%W != w) {
											continue
										}
										want = append(want, t)
									}
									start, stride := ownedIters(G, gi, W, w, redundant)
									for t := start; t < total; t += stride {
										got = append(got, t)
									}
									if !slices.Equal(got, want) {
										t.Fatalf("total=%d G=%d gi=%d W=%d w=%d redundant=%v: got %v, want %v",
											total, G, gi, W, w, redundant, got, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
