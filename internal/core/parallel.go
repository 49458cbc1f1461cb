package core

import (
	"context"
	"math"
	"runtime"
	"sync"

	"repro/internal/dist"
	"repro/internal/grouping"
)

// Parallel execution layer for the online search path. Every group scan the
// engine runs — representative scoring, tail resolution, member refinement,
// range scans, and the seasonal / common-pattern mines — is written once,
// as a sharded loop: worker w of W takes items w, w+W, w+2W, … and keeps its
// own statistics and its own pruning bound, and the shards merge in worker
// order at the barrier. Workers = 1 is the one-shard case, run inline on the
// calling goroutine. The worker count depends only on Options.Workers (or its
// analytics equivalents) and the input size; docs/ARCHITECTURE.md
// ("Determinism contract") states what that guarantees.
//
// Cancellation: each worker polls ctx.Err() once per group it scans and
// every ctxCheckStride members it refines, so a cancelled scan aborts within
// one pruning round per worker.

const (
	// minParallelGroups is the smallest group scan that gets more than one
	// worker; below it the dispatch overhead dwarfs the per-group work.
	minParallelGroups = 64
	// minParallelMembers is the smallest member scan (one group, or one
	// exact-mode wave) that gets more than one worker.
	minParallelMembers = 256
	// exactWave is how many surviving groups one exact-mode refinement wave
	// holds. It is a constant — never derived from the worker count — so
	// the certified-bound re-check points, and with them the refined set,
	// are identical at every worker count.
	exactWave = 16
)

// resolveWorkers maps a Workers knob to an effective pool size for n work
// items: values < 1 select GOMAXPROCS, and the pool never exceeds the item
// count.
func resolveWorkers(requested, n int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// poolSize is the worker count for a scan of n items: one below the scan's
// minimum parallel size, the resolved Workers knob otherwise.
func poolSize(requested, n, minParallel int) int {
	if n < minParallel {
		return 1
	}
	return resolveWorkers(requested, n)
}

// shard runs fn for workers 0 … workers-1 — inline when there is one, on
// one goroutine each otherwise — and gives every worker its own statistics
// block, merged into st (when non-nil) in worker order at the barrier. It
// returns the first error by worker index; the siblings of a failed worker
// stop at their own next ctx poll.
func shard(workers int, st *SearchStats, fn func(w int, st *SearchStats) error) error {
	locals := make([]SearchStats, workers)
	errs := make([]error, workers)
	run := func(w int) {
		var local SearchStats
		errs[w] = fn(w, &local)
		locals[w] = local
	}
	if workers == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				run(w)
			}(w)
		}
		wg.Wait()
	}
	if st != nil {
		for _, local := range locals {
			st.add(local)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardTopK is shard for scans that offer matches into top. Each worker
// offers into its own topK seeded from top, whose worst score is that
// worker's pruning bound, and the shards merge into top in worker order at
// the barrier. A worker's bound is never below the merged one, so pruning
// against it is sound, and the merged accumulator is the top-k of
// everything offered at any worker count. The one-shard case offers into
// top directly.
func shardTopK(workers int, top *topK, st *SearchStats, fn func(w int, top *topK, st *SearchStats) error) error {
	locals := make([]*topK, workers)
	for w := range locals {
		locals[w] = top
		if workers > 1 {
			locals[w] = top.clone()
		}
	}
	err := shard(workers, st, func(w int, st *SearchStats) error {
		return fn(w, locals[w], st)
	})
	if workers > 1 {
		for _, local := range locals {
			for _, m := range local.ms {
				top.offer(m)
			}
		}
	}
	return err
}

// repScoreJob is one group to score plus the per-length precomputation
// shared (read-only) by every group of that length.
type repScoreJob struct {
	ref    GroupRef
	g      *grouping.Group
	norm   float64
	qU, qL []float64
}

// flattenGroups lists every candidate group of the given lengths in scan
// order, computing the query envelope once per length.
func (e *Engine) flattenGroups(q []float64, lengths []int, opts Options) []repScoreJob {
	var jobs []repScoreJob
	for _, l := range lengths {
		groups := e.base.GroupsOfLength(l)
		if len(groups) == 0 {
			continue
		}
		norm := opts.norm(len(q), l)
		qU, qL := dist.Envelope(q, l, opts.Band)
		//onex:nopoll O(1) job enumeration per group; the scoring pass that consumes the jobs polls per group
		for gi, g := range groups {
			jobs = append(jobs, repScoreJob{ref: GroupRef{Length: l, Index: gi}, g: g, norm: norm, qU: qU, qL: qL})
		}
	}
	return jobs
}

// scoreRepresentatives computes DTW(query, representative) for every group
// of the candidate lengths, with an LB_Kim + LB_Keogh + early-abandon
// cascade against the worker's running k-th best representative score.
// Groups whose representative provably cannot enter the worker's top-k —
// and so not the global one — are returned with repDist = +Inf. The
// candidates come back in scan order whatever the worker count.
func (e *Engine) scoreRepresentatives(ctx context.Context, q []float64, k int, lengths []int, opts Options, st *SearchStats) ([]repCandidate, error) {
	jobs := e.flattenGroups(q, lengths, opts)
	cands := make([]repCandidate, len(jobs))
	workers := poolSize(opts.Workers, len(jobs), minParallelGroups)
	err := shard(workers, st, func(w int, st *SearchStats) error {
		// kth is this shard's k-th best representative score; the raw
		// abandon bound per job is score bound * norm.
		kth := newKthTracker(k)
		for i := w; i < len(jobs); i += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			job := jobs[i]
			repDist := scoreJob(q, job, kth.bound()*job.norm, opts.Band, st)
			score := repDist / job.norm
			if !math.IsInf(repDist, 1) {
				kth.offer(score)
			}
			cands[i] = repCandidate{ref: job.ref, g: job.g, repDist: repDist, repScore: score, norm: job.norm}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cands, nil
}

// scoreJob runs the LB_Kim -> LB_Keogh -> early-abandon-DTW cascade for one
// representative against the raw-distance bound ub, counting into the
// worker's st.
func scoreJob(q []float64, job repScoreJob, ub float64, band int, st *SearchStats) (repDist float64) {
	st.Groups++
	if dist.LBKim(q, job.g.Rep) > ub || dist.LBKeogh(job.g.Rep, job.qU, job.qL, ub) > ub {
		st.GroupsLBPruned++
		return math.Inf(1)
	}
	st.RepDTW++
	repDist = dist.DTWEarlyAbandon(q, job.g.Rep, band, ub)
	if math.IsInf(repDist, 1) {
		// Abandoned against the k-th best bound: the group is pruned exactly
		// like an LB rejection (and un-counted if a fallback later recomputes
		// it).
		st.GroupsLBPruned++
	}
	return repDist
}

// resolveCandidates recomputes the representative distance of every
// LB-pruned (repDist = +Inf) candidate in cands, so the caller can continue
// walking groups in true representative-score order. Each recompute
// un-counts the earlier prune, keeping GroupsLBPruned and GroupsRefined
// disjoint.
func (e *Engine) resolveCandidates(ctx context.Context, q []float64, cands []repCandidate, opts Options, st *SearchStats) error {
	var idx []int
	for i := range cands {
		if math.IsInf(cands[i].repDist, 1) {
			idx = append(idx, i)
		}
	}
	if st != nil {
		st.GroupsLBPruned -= len(idx)
		st.RepDTW += len(idx)
	}
	workers := poolSize(opts.Workers, len(idx), minParallelGroups)
	return shard(workers, nil, func(w int, _ *SearchStats) error {
		for j := w; j < len(idx); j += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			c := &cands[idx[j]]
			c.repDist = dist.DTWBanded(q, c.g.Rep, opts.Band)
			c.repScore = c.repDist / c.norm
		}
		return nil
	})
}

// refine scans the members of groups — one group in the approximate walk,
// one wave in the exact walk — with an LB cascade and early-abandon DTW,
// offering improvements into top. The members of all the groups, in order,
// form one work list, sharded once it reaches minParallelMembers. The
// context is re-checked every ctxCheckStride members each worker visits.
func (e *Engine) refine(ctx context.Context, q []float64, groups []repCandidate, c QueryConstraints, top *topK, opts Options, st *SearchStats) error {
	n := 0
	// The query envelope of each group's length, computed once and shared
	// read-only by the workers.
	envs := make([][2][]float64, len(groups))
	//onex:nopoll one envelope per group of one wave (at most exactWave groups); the scan below polls every 64 members
	for i, cand := range groups {
		n += len(cand.g.Members)
		envs[i][0], envs[i][1] = dist.Envelope(q, cand.g.Length, opts.Band)
	}
	if st != nil {
		st.GroupsRefined += len(groups)
		st.Members += n
	}
	workers := poolSize(opts.Workers, n, minParallelMembers)
	return shardTopK(workers, top, st, func(w int, top *topK, st *SearchStats) error {
		seen, offset := 0, 0
		for gi, cand := range groups {
			members := cand.g.Members
			// The first member of this group whose work-list position
			// offset+mi falls to worker w.
			first := ((w-offset)%workers + workers) % workers
			offset += len(members)
			if first >= len(members) {
				continue
			}
			qU, qL := envs[gi][0], envs[gi][1]
			for mi := first; mi < len(members); mi += workers {
				if seen%ctxCheckStride == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				seen++
				m := members[mi]
				if c.excludes(m) {
					continue
				}
				mv := m.Values(e.ds)
				ub := top.boundScore() * cand.norm // raw-distance bound
				if dist.LBKim(q, mv) > ub || dist.LBKeogh(mv, qU, qL, ub) > ub {
					continue
				}
				st.MemberDTW++
				d := dist.DTWEarlyAbandon(q, mv, opts.Band, ub)
				if math.IsInf(d, 1) {
					continue
				}
				top.offer(Match{
					Ref:     m,
					Values:  mv,
					Dist:    d,
					Score:   d / cand.norm,
					RepDist: cand.repDist,
					Group:   cand.ref,
				})
			}
		}
		return nil
	})
}

// scanGroups runs fn over every job, sharded like every other scan once the
// list reaches minParallelGroups, and collects the accepted results in job
// order, so the output never depends on scheduling. fn counts into its
// worker's stats block; each job is preceded by a ctx poll. This is the
// shared scaffolding of the range, seasonal, and common-pattern scans, whose
// per-group work needs no cross-group state.
func scanGroups[J, R any](ctx context.Context, requestedWorkers int, jobs []J, st *SearchStats, fn func(J, *SearchStats) (R, bool, error)) ([]R, error) {
	found := make([]*R, len(jobs))
	workers := poolSize(requestedWorkers, len(jobs), minParallelGroups)
	err := shard(workers, st, func(w int, st *SearchStats) error {
		for i := w; i < len(jobs); i += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			r, ok, err := fn(jobs[i], st)
			if err != nil {
				return err
			}
			if ok {
				found[i] = &r
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []R
	for _, r := range found {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out, nil
}

// add accumulates another stats block (worker-local merge).
func (s *SearchStats) add(o SearchStats) {
	s.Groups += o.Groups
	s.GroupsLBPruned += o.GroupsLBPruned
	s.RepDTW += o.RepDTW
	s.GroupsRefined += o.GroupsRefined
	s.Members += o.Members
	s.MemberDTW += o.MemberDTW
}
