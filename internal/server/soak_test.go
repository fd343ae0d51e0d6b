package server

// Soak test: N concurrent clients mixing Ingest/Remove/Query against a
// live server, meant to run under -race (CI does). Invariants held
// throughout, not just at the end:
//
//   - no request ever answers 5xx (4xx from losing a churn race — e.g. a
//     duplicate ingest — is legitimate);
//   - MATCH VALUE and MATCH DISTANCE METRIC linf agree: they are the same
//     predicate (±ε band ⇔ L∞ ≤ ε, see internal/dist), so their answers
//     restricted to the never-removed stable corpus must be identical on
//     every single pair of calls. Both are index routes under the same
//     feature bound (the L2 feature distance scaled by 1/√n), so this
//     pins the server under churn, not the planner; the scan reference is
//     TestIndexedQueryEquivalence in internal/core.
//
// The workload mirrors equivalence_test.go: a stable jittered family the
// assertions read, plus churn ids the writers create and destroy.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"seqrep"
	"seqrep/client"
)

func TestSoakConcurrentClients(t *testing.T) {
	ctx := context.Background()
	db, err := seqrep.New(seqrep.Config{IndexCoeffs: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, c := testServer(t, Config{DB: db})

	rng := rand.New(rand.NewSource(99))
	base := smoothWalk(rng, 64)
	const stable = 10
	for i := 0; i < stable; i++ {
		if _, err := c.Ingest(ctx, wireItem(fmt.Sprintf("base-%02d", i), jitter(rng, base, 0.2))); err != nil {
			t.Fatal(err)
		}
	}

	// no5xx fails the test on any server-side error; client-side rejects
	// are expected under churn.
	no5xx := func(what string, err error) bool {
		if err == nil {
			return true
		}
		var ae *client.APIError
		if errors.As(err, &ae) && ae.StatusCode < 500 {
			return false
		}
		t.Errorf("%s: %v", what, err)
		return false
	}

	stableIDs := func(ids []string) []string {
		out := []string{}
		for _, id := range ids {
			if strings.HasPrefix(id, "base-") {
				out = append(out, id)
			}
		}
		return sortedIDs(out)
	}

	const (
		writers    = 4
		queriers   = 4
		iterations = 25
	)
	var wg sync.WaitGroup

	// Writers churn disjoint id spaces: ingest a cousin of the base
	// family, read it back, remove it.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			churnRng := rand.New(rand.NewSource(int64(w) * 131))
			for i := 0; i < iterations; i++ {
				id := fmt.Sprintf("churn-%d-%d", w, i)
				if !no5xx("churn ingest", func() error {
					_, err := c.Ingest(ctx, wireItem(id, jitter(churnRng, base, 0.2)))
					return err
				}()) {
					continue
				}
				no5xx("churn record", func() error { _, err := c.Record(ctx, id); return err }())
				no5xx("churn remove", func() error { _, err := c.Remove(ctx, id); return err }())
			}
		}(w)
	}

	// Queriers hammer the two statements and compare their stable subsets.
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				eps := []float64{0, 1, 2, 8}[i%4]
				exemplar := fmt.Sprintf("base-%02d", (q+i)%stable)
				value, err := c.Query(ctx, fmt.Sprintf("MATCH VALUE LIKE %s EPS %g", exemplar, eps))
				if !no5xx("value query", err) {
					continue
				}
				linf, err := c.Query(ctx, fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC linf EPS %g", exemplar, eps))
				if !no5xx("linf query", err) {
					continue
				}
				got, want := stableIDs(value.IDs), stableIDs(linf.IDs)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("eps=%g exemplar=%s: value %v != linf %v", eps, exemplar, got, want)
				}
				// Mix in the other families so the cache and planner see
				// varied statements.
				no5xx("pattern query", func() error {
					_, err := c.Query(ctx, `FIND PATTERN "U+D+"`)
					return err
				}())
				no5xx("explain query", func() error {
					_, err := c.Query(ctx, fmt.Sprintf("EXPLAIN MATCH DISTANCE LIKE %s METRIC l2 EPS %g", exemplar, eps))
					return err
				}())
			}
		}(q)
	}
	wg.Wait()

	// Quiesced: the stable corpus is intact and the statements agree fully.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Sequences != stable {
		t.Fatalf("after churn, %d sequences remain, want %d", h.Sequences, stable)
	}
	value, err := c.Query(ctx, `MATCH VALUE LIKE base-00 EPS 8`)
	if err != nil {
		t.Fatal(err)
	}
	linf, err := c.Query(ctx, `MATCH DISTANCE LIKE base-00 METRIC linf EPS 8`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedIDs(value.IDs), sortedIDs(linf.IDs); !reflect.DeepEqual(got, want) {
		t.Fatalf("quiesced: value %v != linf %v", got, want)
	}
	if len(value.IDs) == 0 {
		t.Fatal("quiesced equivalence check matched nothing: the soak exercised nothing")
	}

	// The metrics survived the stampede with sane counters.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `seqserved_requests_total{endpoint="POST /v1/query",code="200"}`) {
		t.Error("metrics lost the query counter")
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, `code="5`) {
			t.Errorf("metrics recorded a server error: %s", line)
		}
	}
}
