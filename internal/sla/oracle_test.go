package sla

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cloudburst/internal/stats"
)

// refSet is the sort-based record set the paged Set replaced: an unordered
// bag with a dedup map, sorted on demand, with every reader written over
// the sorted copy. It is the oracle the paged Set must reproduce bit for
// bit.
type refSet struct {
	records []Record
	seen    map[int]struct{}
}

func newRefSet() *refSet { return &refSet{seen: make(map[int]struct{})} }

func (s *refSet) add(r Record) error {
	if r.Seq < 0 {
		return &RecordError{Seq: r.Seq, Field: "Seq", Value: r.Seq, Reason: "must not be negative"}
	}
	if _, dup := s.seen[r.Seq]; dup {
		return &RecordError{Seq: r.Seq, Field: "Seq", Value: r.Seq, Reason: "already completed (duplicate sequence)"}
	}
	if r.CompletedAt < r.ArrivalTime {
		return &RecordError{Seq: r.Seq, Field: "CompletedAt", Value: r.CompletedAt,
			Reason: fmt.Sprintf("precedes arrival %v", r.ArrivalTime)}
	}
	s.records = append(s.records, r)
	s.seen[r.Seq] = struct{}{}
	return nil
}

func (s *refSet) sorted() []Record {
	out := slices.Clone(s.records)
	slices.SortFunc(out, func(a, b Record) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// end is the engine's former run-end loop.
func (s *refSet) end() float64 {
	end := 0.0
	for _, r := range s.sorted() {
		if r.CompletedAt > end {
			end = r.CompletedAt
		}
	}
	return end
}

// The scalar metrics fold in insertion order, as Set's accumulators do.
func (s *refSet) makespan() float64 {
	if len(s.records) == 0 {
		return 0
	}
	lo, hi := s.records[0].ArrivalTime, s.records[0].CompletedAt
	for _, r := range s.records {
		lo = min(lo, r.ArrivalTime)
		hi = max(hi, r.CompletedAt)
	}
	return hi - lo
}

func (s *refSet) burstRatio() float64 {
	if len(s.records) == 0 {
		return 0
	}
	ec := 0
	for _, r := range s.records {
		if r.Where == EC {
			ec++
		}
	}
	return float64(ec) / float64(len(s.records))
}

func (s *refSet) meanFlowTime() float64 {
	if len(s.records) == 0 {
		return 0
	}
	var sum float64
	for _, r := range s.records {
		sum += r.CompletedAt - r.ArrivalTime
	}
	return sum / float64(len(s.records))
}

func (s *refSet) batchBurstRatios() map[int]float64 {
	total, burst := map[int]int{}, map[int]int{}
	for _, r := range s.records {
		total[r.BatchID]++
		if r.Where == EC {
			burst[r.BatchID]++
		}
	}
	out := make(map[int]float64, len(total))
	for b, n := range total {
		out[b] = float64(burst[b]) / float64(n)
	}
	return out
}

func (s *refSet) speedup(tseq float64) float64 {
	if c := s.makespan(); c > 0 && tseq > 0 {
		return tseq / c
	}
	return 0
}

func (s *refSet) total() int64 {
	var sum int64
	for _, r := range s.records {
		sum += r.OutputSize
	}
	return sum
}

func (s *refSet) ooAt(t float64, tol int) (mt int, ot int64) {
	recs := s.sorted()
	mt = -1
	completedUpTo := 0
	for _, r := range recs {
		if r.CompletedAt <= t {
			completedUpTo++
			if (r.Seq+1)-tol <= completedUpTo && r.Seq > mt {
				mt = r.Seq
			}
		}
	}
	if mt < 0 {
		return -1, 0
	}
	for _, r := range recs {
		if r.Seq <= mt && r.CompletedAt <= t {
			ot += r.OutputSize
		}
	}
	return mt, ot
}

func (s *refSet) ooSeries(interval float64, tol int) []stats.Point {
	if len(s.records) == 0 {
		return nil
	}
	var pts []stats.Point
	lo, hi := s.records[0].ArrivalTime, s.records[0].CompletedAt
	for _, r := range s.records {
		lo = min(lo, r.ArrivalTime)
		hi = max(hi, r.CompletedAt)
	}
	for t := lo; t <= hi+interval; t += interval {
		_, ot := s.ooAt(t, tol)
		pts = append(pts, stats.Point{T: t, V: float64(ot)})
	}
	return pts
}

func (s *refSet) inOrderWaits() []stats.Point {
	recs := s.sorted()
	if len(recs) == 0 {
		return nil
	}
	var pts []stats.Point
	maxSoFar := recs[0].CompletedAt
	for i := 1; i < len(recs); i++ {
		pts = append(pts, stats.Point{T: float64(recs[i].Seq), V: recs[i].CompletedAt - maxSoFar})
		if recs[i].CompletedAt > maxSoFar {
			maxSoFar = recs[i].CompletedAt
		}
	}
	return pts
}

func (s *refSet) completions() []stats.Point {
	var pts []stats.Point
	for _, r := range s.sorted() {
		pts = append(pts, stats.Point{T: float64(r.Seq), V: r.CompletedAt})
	}
	return pts
}

// inOrderStats is the former PeakStats and ValleyCount pair.
func (s *refSet) inOrderStats() (peaks int, stall, maxPeak float64, valleys int) {
	for _, p := range s.inOrderWaits() {
		if p.V > 0 {
			peaks++
			stall += p.V
			if p.V > maxPeak {
				maxPeak = p.V
			}
		}
	}
	for _, p := range s.inOrderWaits() {
		if p.V < 0 {
			valleys++
		}
	}
	return peaks, stall, maxPeak, valleys
}

func (s *refSet) ticketsKept(policy TicketPolicy) TicketReport {
	recs := s.sorted()
	rep := TicketReport{Jobs: len(recs)}
	if len(recs) == 0 {
		return rep
	}
	var lateness []float64
	var sum float64
	for _, r := range recs {
		late := r.CompletedAt - (r.ArrivalTime + policy(r.Seq, r.OutputSize))
		if late <= 0 {
			rep.Kept++
			lateness = append(lateness, 0)
			continue
		}
		lateness = append(lateness, late)
		sum += late
		if late > rep.WorstLateness {
			rep.WorstLateness = late
		}
	}
	rep.KeptRatio = float64(rep.Kept) / float64(rep.Jobs)
	rep.MeanLateness = sum / float64(rep.Jobs)
	sort.Float64s(lateness)
	rep.P95Lateness = lateness[max(int(math.Ceil(0.95*float64(len(lateness))))-1, 0)]
	return rep
}

func (s *refSet) minimalUniformTicket(fraction float64) float64 {
	recs := s.sorted()
	if len(recs) == 0 {
		return 0
	}
	offsets := make([]float64, len(recs))
	for i, r := range recs {
		offsets[i] = r.CompletedAt - r.ArrivalTime
	}
	sort.Float64s(offsets)
	idx := int(math.Ceil(fraction*float64(len(offsets)))) - 1
	return offsets[min(max(idx, 0), len(offsets)-1)]
}

// recordSet is one named input of the oracle test, in insertion order.
type recordSet struct {
	name string
	recs []Record
}

// recordSets builds random record sets: for each size, dense positions
// 0..n−1 and positions with holes (open jobs), plus a few far-apart
// positions and a set whose completions tie, each shuffled into a random
// insertion order. A third of the completions land on a 10 s grid, which
// exercises the ≤ t boundary; the tied set gives zero waits.
func recordSets(rng *rand.Rand) []recordSet {
	draw := func(seq int) Record {
		arr := rng.Float64() * 2000
		done := arr + rng.Float64()*4000
		if rng.Intn(3) == 0 {
			done = 10 * math.Ceil(done/10)
		}
		w := IC
		if rng.Intn(3) == 0 {
			w = EC
		}
		return Record{Seq: seq, JobID: seq + 7, BatchID: rng.Intn(5), OutputSize: int64(1 + rng.Intn(1<<20)),
			ArrivalTime: arr, CompletedAt: done, Where: w}
	}
	var sets []recordSet
	for _, n := range []int{0, 1, 31, 32, 33, 64, 1000} {
		var dense, holes []Record
		for seq := 0; seq < n; seq++ {
			dense = append(dense, draw(seq))
		}
		for seq := 0; len(holes) < n; seq++ {
			if rng.Intn(5) != 0 {
				holes = append(holes, draw(seq))
			}
		}
		sets = append(sets, recordSet{fmt.Sprintf("dense-%d", n), dense}, recordSet{fmt.Sprintf("holes-%d", n), holes})
	}
	var far, ties []Record
	for _, seq := range []int{3, 31, 32, 5000, 100000, 100001, 1 << 20} {
		far = append(far, draw(seq))
	}
	// Completions from three instants: many waits are exactly zero.
	for seq := 0; seq < 64; seq++ {
		r := draw(seq)
		r.ArrivalTime, r.CompletedAt = rng.Float64()*500, 500*float64(1+rng.Intn(3))
		ties = append(ties, r)
	}
	sets = append(sets, recordSet{"far-apart", far}, recordSet{"ties", ties})
	for _, set := range sets {
		rng.Shuffle(len(set.recs), func(i, j int) { set.recs[i], set.recs[j] = set.recs[j], set.recs[i] })
	}
	return sets
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePoints(a, b []stats.Point) bool {
	return slices.EqualFunc(a, b, func(p, q stats.Point) bool { return sameFloat(p.T, q.T) && sameFloat(p.V, q.V) })
}

func sameTickets(a, b TicketReport) bool {
	return a.Jobs == b.Jobs && a.Kept == b.Kept && sameFloat(a.KeptRatio, b.KeptRatio) &&
		sameFloat(a.MeanLateness, b.MeanLateness) && sameFloat(a.P95Lateness, b.P95Lateness) &&
		sameFloat(a.WorstLateness, b.WorstLateness)
}

// TestSetMatchesSortedOracle checks every reader of the paged Set against
// the sort-based oracle, bit for bit, on dense, holed and sparse sets
// added in random order.
func TestSetMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	policies := map[string]TicketPolicy{
		"fixed":        FixedTicket(900),
		"proportional": ProportionalTicket(300, 400),
		"positional":   PositionalTicket(200, 3),
	}
	for _, set := range recordSets(rng) {
		name, recs := set.name, set.recs
		s, ref := NewSet(), newRefSet()
		for _, r := range recs {
			if err, want := s.Add(r), ref.add(r); (err == nil) != (want == nil) {
				t.Fatalf("%s: Add(%+v) = %v, oracle %v", name, r, err, want)
			}
		}
		if s.Len() != len(ref.records) {
			t.Fatalf("%s: Len = %d, oracle %d", name, s.Len(), len(ref.records))
		}
		if got, want := s.Records(), ref.sorted(); !slices.Equal(got, want) {
			t.Fatalf("%s: Records differ from the oracle", name)
		}
		for _, c := range []struct {
			metric    string
			got, want float64
		}{
			{"End", s.End(), ref.end()},
			{"Makespan", s.Makespan(), ref.makespan()},
			{"Speedup", s.Speedup(1e5), ref.speedup(1e5)},
			{"BurstRatio", s.BurstRatio(), ref.burstRatio()},
			{"MeanFlowTime", s.MeanFlowTime(), ref.meanFlowTime()},
		} {
			if !sameFloat(c.got, c.want) {
				t.Errorf("%s: %s = %v, oracle %v", name, c.metric, c.got, c.want)
			}
		}
		got, want := s.BatchBurstRatios(), ref.batchBurstRatios()
		if !maps.EqualFunc(got, want, sameFloat) {
			t.Errorf("%s: BatchBurstRatios = %v, oracle %v", name, got, want)
		}

		lo, hi := 0.0, ref.end()+20
		for tol := 0; tol <= 3; tol++ {
			for i := 0; i <= 64; i++ {
				at := lo + (hi-lo)*float64(i)/64
				if i%8 == 3 && len(recs) > 0 {
					at = recs[i%len(recs)].CompletedAt // on a completion: the ≤ boundary
				}
				m, o := s.OOAt(at, tol)
				wm, wo := ref.ooAt(at, tol)
				if m != wm || o != wo {
					t.Fatalf("%s: OOAt(%v, %d) = %d,%d, oracle %d,%d", name, at, tol, m, o, wm, wo)
				}
				if ref.total() > 0 {
					if f, wf := s.OrderedFractionAt(at, tol), float64(wo)/float64(ref.total()); !sameFloat(f, wf) {
						t.Fatalf("%s: OrderedFractionAt(%v, %d) = %v, oracle %v", name, at, tol, f, wf)
					}
				}
			}
			if !samePoints(s.OOSeries(120, tol, "oo").Points, ref.ooSeries(120, tol)) {
				t.Errorf("%s: OOSeries(tol %d) differs from the oracle", name, tol)
			}
		}
		if !samePoints(s.InOrderWaitSeries("w").Points, ref.inOrderWaits()) {
			t.Errorf("%s: InOrderWaitSeries differs from the oracle", name)
		}
		if !samePoints(s.CompletionSeries("c").Points, ref.completions()) {
			t.Errorf("%s: CompletionSeries differs from the oracle", name)
		}
		p, st, mp, v := s.InOrderStats()
		wp, wst, wmp, wv := ref.inOrderStats()
		if p != wp || !sameFloat(st, wst) || !sameFloat(mp, wmp) || v != wv {
			t.Errorf("%s: InOrderStats = %d,%v,%v,%d, oracle %d,%v,%v,%d", name, p, st, mp, v, wp, wst, wmp, wv)
		}
		for pname, policy := range policies {
			if got, want := s.TicketsKept(policy), ref.ticketsKept(policy); !sameTickets(got, want) {
				t.Errorf("%s: TicketsKept(%s) = %+v, oracle %+v", name, pname, got, want)
			}
		}
		for _, f := range []float64{0.01, 0.5, 0.95, 1} {
			if got, want := s.MinimalUniformTicket(f), ref.minimalUniformTicket(f); !sameFloat(got, want) {
				t.Errorf("%s: MinimalUniformTicket(%v) = %v, oracle %v", name, f, got, want)
			}
		}
	}
}

// TestDuplicateAtPageEdges rejects a second completion of a position on
// either side of a page boundary and leaves the set as it was.
func TestDuplicateAtPageEdges(t *testing.T) {
	s := NewSet()
	for seq := 0; seq < 70; seq++ {
		s.MustAdd(rec(seq, float64(seq), float64(100+seq), 10, IC))
	}
	before := s.Records()
	span, burst, flow := s.Makespan(), s.BurstRatio(), s.MeanFlowTime()
	for _, seq := range []int{31, 32, 63, 64} {
		err := s.Add(rec(seq, 0, 5000, 99, EC))
		var re *RecordError
		if !errors.As(err, &re) || re.Field != "Seq" || re.Seq != seq {
			t.Fatalf("duplicate seq %d: err = %v, want a Seq *RecordError", seq, err)
		}
	}
	if !slices.Equal(s.Records(), before) || s.Len() != 70 ||
		s.Makespan() != span || s.BurstRatio() != burst || s.MeanFlowTime() != flow {
		t.Fatal("rejected duplicates changed the set")
	}
}

// TestAddAllocatesPages pins Add's storage: filling positions 0..n−1 makes
// one allocation per 32 records plus the page table's doublings, and
// Records allocates its copy once at its exact length.
func TestAddAllocatesPages(t *testing.T) {
	const n = 1000
	pages := (n + pageSize - 1) / pageSize
	growths := 0
	for c := 1; c < 2*pages; c *= 2 {
		growths++
	}
	var s *Set
	allocs := testing.AllocsPerRun(20, func() {
		s = NewSet()
		for seq := 0; seq < n; seq++ {
			s.MustAdd(rec(seq, 0, float64(seq), 1, IC))
		}
	})
	if limit := float64(1 + pages + growths); allocs > limit {
		t.Fatalf("filling %d records makes %v allocations, want at most %v (set, %d pages, %d table growths)",
			n, allocs, limit, pages, growths)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Records() }); allocs != 1 {
		t.Fatalf("Records makes %v allocations, want 1", allocs)
	}
}
