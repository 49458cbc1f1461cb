package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/store"
	"repro/onex"
)

// startLeader builds a store-backed leader DB behind the real HTTP surface.
func startLeader(t *testing.T) (*onex.DB, *httptest.Server) {
	t.Helper()
	eng, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.RandomWalks(gen.WalkOptions{Num: 6, Length: 64, Seed: 21})
	db, err := onex.Open(ds, onex.Config{Store: eng, MaxLength: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	s.AddDB("walks", db)
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hts.Close()
		db.Close()
	})
	return db, hts
}

// startFollower runs a follower for the leader and waits for convergence.
func startFollower(t *testing.T, ctx context.Context, url string, target uint64) *replica.Follower {
	t.Helper()
	f := replica.New(url, "walks", replica.Options{PollWait: 500 * time.Millisecond})
	go func() { _ = f.Run(ctx) }()
	if err := f.WaitCaughtUp(ctx, target); err != nil {
		t.Fatalf("follower never converged: %v", err)
	}
	return f
}

var wallRE = regexp.MustCompile(`"wall_micros":\d+`)

// marshalNormalized renders a result as JSON with the only nondeterministic
// field (measured wall time) zeroed; everything else is contractually
// deterministic, so equal bytes mean equal answers.
func marshalNormalized(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return wallRE.ReplaceAll(b, []byte(`"wall_micros":0`))
}

// assertEquivalent runs the acceptance check: at equal applied version the
// follower answers Find, Analyze, and Stream byte-identically to the
// leader. Workers=1 pins the walk schedule so the comparison is exact.
func assertEquivalent(t *testing.T, leader, follower *onex.DB) {
	t.Helper()
	if lv, fv := leader.Version(), follower.Version(); lv != fv {
		t.Fatalf("comparing at unequal versions: leader %d, follower %d", lv, fv)
	}
	ctx := context.Background()
	q := onex.Query{Window: onex.Window{Series: "walk-001", Start: 4, Length: 12},
		K: 3, Exclude: onex.Exclude{Self: true}, Workers: 1}

	lr, lerr := leader.Find(ctx, q)
	fr, ferr := follower.Find(ctx, q)
	if lerr != nil || ferr != nil {
		t.Fatalf("find: leader err %v, follower err %v", lerr, ferr)
	}
	if lb, fb := marshalNormalized(t, lr), marshalNormalized(t, fr); !bytes.Equal(lb, fb) {
		t.Fatalf("Find diverged at version %d:\nleader:   %s\nfollower: %s", leader.Version(), lb, fb)
	}

	a := onex.Analysis{Kind: onex.AnalysisOverview, Length: 12, K: 8, Workers: 1}
	la, lerr := leader.Analyze(ctx, a)
	fa, ferr := follower.Analyze(ctx, a)
	if lerr != nil || ferr != nil {
		t.Fatalf("analyze: leader err %v, follower err %v", lerr, ferr)
	}
	if lb, fb := marshalNormalized(t, la), marshalNormalized(t, fa); !bytes.Equal(lb, fb) {
		t.Fatalf("Analyze diverged at version %d:\nleader:   %s\nfollower: %s", leader.Version(), lb, fb)
	}

	lx, lerr := leader.Stream(ctx, q)
	fx, ferr := follower.Stream(ctx, q)
	if lerr != nil || ferr != nil {
		t.Fatalf("stream: leader err %v, follower err %v", lerr, ferr)
	}
	ls, lerr := lx.Wait()
	fs, ferr := fx.Wait()
	if lerr != nil || ferr != nil {
		t.Fatalf("stream wait: leader err %v, follower err %v", lerr, ferr)
	}
	if lb, fb := marshalNormalized(t, ls), marshalNormalized(t, fs); !bytes.Equal(lb, fb) {
		t.Fatalf("Stream final result diverged at version %d:\nleader:   %s\nfollower: %s", leader.Version(), lb, fb)
	}
}

// TestFollowerByteEquivalence: bootstrap, stream a batch of ingests, and
// verify the follower is answer-identical to the leader at the same
// version.
func TestFollowerByteEquivalence(t *testing.T) {
	leader, hts := startLeader(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	f := startFollower(t, ctx, hts.URL, leader.Version())
	assertEquivalent(t, leader, f.DB())

	// Stream ingests under the follower and re-check at the new version.
	extra := gen.RandomWalks(gen.WalkOptions{Num: 5, Length: 64, Seed: 33})
	for _, s := range extra.Series {
		if err := leader.AddSeries("live-"+s.Name, s.Values); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitCaughtUp(ctx, leader.Version()); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, leader, f.DB())

	st := f.Status()
	if st.State != "streaming" || st.RecordsApplied != 5 || st.SnapshotsShipped != 1 {
		t.Fatalf("status after streaming = %+v", st)
	}
	if st.LagRecords != 0 || st.AppliedSeq != st.LeaderSeq {
		t.Fatalf("caught-up follower reports lag: %+v", st)
	}
	if st.SecondsSinceRecord < 0 {
		t.Fatalf("SecondsSinceRecord not tracking applied records: %+v", st)
	}
}

// TestFollowerRestartMidStream: a follower killed mid-stream and replaced
// by a fresh one (crash-and-restart) still converges to byte equivalence.
func TestFollowerRestartMidStream(t *testing.T) {
	leader, hts := startLeader(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	fctx, kill := context.WithCancel(ctx)
	defer kill()
	first := startFollower(t, fctx, hts.URL, leader.Version())
	_ = first

	extra := gen.RandomWalks(gen.WalkOptions{Num: 6, Length: 64, Seed: 44})
	for i, s := range extra.Series {
		if err := leader.AddSeries("live-"+s.Name, s.Values); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			kill() // mid-stream: later ingests land with no follower running
		}
	}

	second := startFollower(t, ctx, hts.URL, leader.Version())
	assertEquivalent(t, leader, second.DB())
}

// TestCompactionFenceReshipsAndConverges: a leader that compacts after
// every ingest keeps its WAL empty, so a live follower's cursor is always
// behind the boundary — every poll fences, forcing snapshot re-ships. The
// follower must ride the fences to byte equivalence, never a torn state.
func TestCompactionFenceReshipsAndConverges(t *testing.T) {
	leader, hts := startLeader(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f := startFollower(t, ctx, hts.URL, leader.Version())

	extra := gen.RandomWalks(gen.WalkOptions{Num: 4, Length: 64, Seed: 55})
	for _, s := range extra.Series {
		if err := leader.AddSeries("live-"+s.Name, s.Values); err != nil {
			t.Fatal(err)
		}
		if err := leader.Snapshot(); err != nil { // fold the WAL: fence the follower
			t.Fatal(err)
		}
	}
	if err := f.WaitCaughtUp(ctx, leader.Version()); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, leader, f.DB())
	if st := f.Status(); st.SnapshotsShipped < 2 {
		t.Fatalf("compaction behind the cursor should force a re-ship, got %d ships", st.SnapshotsShipped)
	}
}

// TestFollowerSpoolBootstrapMmap: with a spool directory configured the
// follower streams shipped snapshots to disk and serves them mmap-backed
// instead of holding a decoded copy on the heap. The mmap path must be
// invisible at the protocol level: byte equivalence after bootstrap, after
// streamed ingests, and across a compaction fence (which re-ships, swaps in
// a fresh mapping, and closes the superseded DB).
func TestFollowerSpoolBootstrapMmap(t *testing.T) {
	leader, hts := startLeader(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The follower reaches the leader through a gate that can hold its WAL
	// long-polls, so the compaction fence below is not a race.
	gate := newTailGate(t, hts.URL)
	proxy := httptest.NewServer(gate)
	defer proxy.Close()

	spool := t.TempDir()
	f := replica.New(proxy.URL, "walks", replica.Options{
		PollWait: 500 * time.Millisecond,
		SpoolDir: spool,
	})
	go func() { _ = f.Run(ctx) }()
	if err := f.WaitCaughtUp(ctx, leader.Version()); err != nil {
		t.Fatalf("spooled follower never converged: %v", err)
	}
	assertEquivalent(t, leader, f.DB())

	// The shipped snapshot landed in the spool — that file is what the
	// follower's DB is mapping.
	fi, err := os.Stat(filepath.Join(spool, "walks.snap"))
	if err != nil {
		t.Fatalf("no spooled snapshot: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("spooled snapshot is empty")
	}

	// Streamed ingests apply on top of the mapped dataset.
	extra := gen.RandomWalks(gen.WalkOptions{Num: 3, Length: 64, Seed: 77})
	for _, s := range extra.Series {
		if err := leader.AddSeries("live-"+s.Name, s.Values); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitCaughtUp(ctx, leader.Version()); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, leader, f.DB())

	// A compaction fence forces a re-ship: the spool file is atomically
	// replaced, a new mapping swapped in, and the old DB closed. The
	// follower must come out the other side still byte-equivalent. Its
	// tail is held while the leader ingests and compacts, so its next poll
	// asks for a record the snapshot has already folded in.
	gate.hold(ctx)
	if err := leader.AddSeries("post-fence", extra.Series[0].Values); err != nil {
		t.Fatal(err)
	}
	if err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	gate.release()
	if err := f.WaitCaughtUp(ctx, leader.Version()); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, leader, f.DB())
	if st := f.Status(); st.SnapshotsShipped < 2 {
		t.Fatalf("fence should force a snapshot re-ship, got %d ships", st.SnapshotsShipped)
	}
}

// tailGate proxies a follower's requests to the leader and can hold its
// WAL long-polls at the door, so a test can change the leader's log while
// no poll is in flight.
type tailGate struct {
	proxy  *httputil.ReverseProxy
	mu     sync.Mutex
	gate   chan struct{} // non-nil while holding; closed on release
	parked chan struct{} // signalled by each poll that reaches a held gate
}

func newTailGate(t *testing.T, leaderURL string) *tailGate {
	t.Helper()
	u, err := url.Parse(leaderURL)
	if err != nil {
		t.Fatal(err)
	}
	return &tailGate{proxy: httputil.NewSingleHostReverseProxy(u), parked: make(chan struct{}, 1)}
}

func (g *tailGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == replica.WALPath("walks") {
		g.mu.Lock()
		gate := g.gate
		g.mu.Unlock()
		if gate != nil {
			select {
			case g.parked <- struct{}{}:
			default:
			}
			<-gate
		}
	}
	g.proxy.ServeHTTP(w, r)
}

// hold closes the gate and returns once a poll is parked at it: the poll
// in flight when hold was called has finished, and no other can start.
func (g *tailGate) hold(ctx context.Context) {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
	select {
	case <-g.parked:
	case <-ctx.Done():
	}
}

// release lets the parked poll, and every later one, through.
func (g *tailGate) release() {
	g.mu.Lock()
	close(g.gate)
	g.gate = nil
	g.mu.Unlock()
}

// TestReplicaDBIsReadOnly: the follower's DB refuses direct writes — the
// only mutation path is the leader's WAL stream.
func TestReplicaDBIsReadOnly(t *testing.T) {
	leader, hts := startLeader(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f := startFollower(t, ctx, hts.URL, leader.Version())

	db := f.DB()
	if !db.IsReplica() {
		t.Fatal("follower DB not marked as replica")
	}
	if err := db.AddSeries("rogue", []float64{1, 2, 3, 4}); err != onex.ErrReadOnlyReplica {
		t.Fatalf("AddSeries on replica = %v, want ErrReadOnlyReplica", err)
	}
	// Out-of-sequence replication is rejected, not silently applied.
	if err := db.ApplyReplicated(db.Version()+2, "gap", []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("ApplyReplicated accepted a sequence gap")
	}
}

// TestFollowerReconnectsAfterLeaderOutage: killing the leader mid-stream
// drives the follower into backoff; restarting a leader on a fresh store
// (new history) fences it into a re-bootstrap and convergence on the new
// incarnation.
func TestFollowerReconnectsAfterLeaderOutage(t *testing.T) {
	leader, hts := startLeader(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f := replica.New(hts.URL, "walks", replica.Options{
		PollWait:   200 * time.Millisecond,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	go func() { _ = f.Run(ctx) }()
	if err := f.WaitCaughtUp(ctx, leader.Version()); err != nil {
		t.Fatal(err)
	}

	hts.CloseClientConnections()
	hts.Close() // leader outage
	deadline := time.Now().Add(10 * time.Second)
	for f.Status().Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never counted a reconnect: %+v", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := f.Status()
	if st.LastError == "" {
		t.Fatalf("follower hides the outage: %+v", st)
	}
}
