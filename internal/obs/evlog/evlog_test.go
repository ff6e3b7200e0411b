package evlog

import (
	"sync"
	"testing"
)

// TestConcurrentRecordAndReaders: sites record from several goroutines
// while the switch flips and readers snapshot — the shape of a live /report
// scrape during a run. Every recorded event keeps its ring sequence number,
// and the two stores agree on whatever both still hold.
func TestConcurrentRecordAndReaders(t *testing.T) {
	s := NewSet(128)
	l := s.Log(0)
	code := Code("concurrent")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); i < 2000; i++ {
				sp := l.Begin(KindCollective, code)
				sp.EndWith(g, i, 0)
			}
		}(int64(g))
	}
	for i := 0; i < 50; i++ {
		s.StartRecording()
		l.Events()
		l.Ring()
		s.Dropped()
		s.StopRecording()
	}
	s.StartRecording()
	wg.Wait()
	if l.Recorded() != 8000 || l.Open() != 0 || len(l.Ring()) != 128 {
		t.Fatalf("recorded %d, open %d, ring holds %d", l.Recorded(), l.Open(), len(l.Ring()))
	}
	ring := map[uint64]Record{}
	for _, r := range l.Ring() {
		ring[r.Seq] = r
	}
	for _, r := range l.Events() {
		if rr, ok := ring[r.Seq]; ok && rr != r {
			t.Fatalf("ring %+v and log %+v disagree", rr, r)
		}
	}
}
