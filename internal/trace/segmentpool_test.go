package trace

import (
	"runtime"
	"testing"
)

// TestSegmentStorageClasses: segment storage comes in power-of-two
// capacities up to DefaultSegmentEvents; a larger segment gets exactly its
// size, and ReleaseSegment keeps storage of any other capacity out of the
// pool.
func TestSegmentStorageClasses(t *testing.T) {
	if 1<<maxSegmentShift != DefaultSegmentEvents {
		t.Fatalf("the largest pooled class holds %d events, DefaultSegmentEvents is %d", 1<<maxSegmentShift, DefaultSegmentEvents)
	}
	for _, c := range []struct{ n, cap int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1000, 1024},
		{DefaultSegmentEvents, DefaultSegmentEvents}, {DefaultSegmentEvents + 1, DefaultSegmentEvents + 1},
	} {
		s := segmentStorage(c.n)
		if len(s) != c.n || cap(s) != c.cap {
			t.Errorf("segmentStorage(%d): len %d cap %d, want cap %d", c.n, len(s), cap(s), c.cap)
		}
		ReleaseSegment(s)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one pool shard
	ReleaseSegment(make([]Event, 3, 100))
	if s := segmentStorage(70); cap(s) != 128 {
		t.Errorf("segmentStorage(70) has capacity %d, want 128", cap(s))
	}
}

// TestReleasedSegmentRecycled: storage handed back by ReleaseSegment serves
// the next segment of its class. The pool may drop any one item (it does so
// at random under the race detector), so a few attempts are allowed.
func TestReleasedSegmentRecycled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for try := 0; try < 20; try++ {
		s := segmentStorage(100)
		ReleaseSegment(s)
		if r := segmentStorage(70); &r[:cap(r)][0] == &s[:cap(s)][0] {
			return
		}
	}
	t.Fatal("released storage was never recycled")
}
