# Convenience targets; CI runs the same steps (see .github/workflows/ci.yml).

.PHONY: all build test check bench-smoke batch-smoke examples-smoke serve-smoke perf-smoke sched-smoke chaos chaos-net chaos-cluster chaos-nemesis chaos-overload clean

all: build

build:
	dune build @all

test:
	dune runtest

# The tier-1 gate plus a smoke run of the engine-backed bench and the
# batch subcommand. No ocamlformat config in this repo, so no fmt check.
check: build test batch-smoke serve-smoke
	dune exec bench/main.exe -- --section fig6 --jobs 2

batch-smoke:
	printf 'gen grid2d size=12 :: minmem; liu; minio policy=first-fit budget=50%%\n' > _batch_smoke.manifest
	dune exec bin/treetrav.exe -- batch _batch_smoke.manifest --jobs 2
	rm -f _batch_smoke.manifest

# The numeric multifrontal examples, end to end: each must exit 0.
# out_of_core asserts that planned I/O equals measured I/O for every
# heuristic and budget, and poisson fails when the out-of-core solve
# returns an Error. The four take under 2 s together.
examples-smoke: build
	for e in factorization out_of_core supernodal_demo poisson; do \
	  ./_build/default/examples/$$e.exe > /dev/null \
	    || { echo "examples-smoke: $$e failed"; exit 1; }; \
	done
	@echo "examples-smoke: factorization, out_of_core, supernodal_demo and poisson ran"

# Quick seeded pass of the core-solver benchmark harness. Besides the
# timings, every row of BENCH_CORE.json carries a result digest, so two
# runs of this target on different revisions double as a behavioural
# regression check (compare the result_digest fields, not the times).
# The quick mode includes the huge-family rows at p = 1M; the kernel
# itself fails the run when a certified minmem-approx gap exceeds the
# pinned threshold, and `timeout` bounds the wall time so a scaling
# regression fails the gate instead of wedging CI. The tree/encode rows
# digest the canonical tree encoding that every job id hashes, so they
# must be present too, as must the sched/validate rows, the
# sched-star rows (a half-heavy star on which a greedy scheduler that
# rescans passed-over tasks turns quadratic), the pipeline/mindeg
# rows (minimum-degree permutations of three corpus matrices) and the
# minio/fig7 row (the paper's Fig. 7 MinIO mix, where most traversals
# fit in memory and take the in-core shortcut). The
# nine huge rows' result digests are pinned (HUGE_DIGESTS, entries
# kernel:instance:digest): the generated trees, the best postorder's
# peak and full order, and minmem-approx's bounds, rounds and full
# order at p = 1M must not change.
HUGE_DIGESTS = \
  gen:caterpillar-1m:18babaab971a2c10ee652fb6e42a215b \
  gen:binary-1m:20e94513e836c3880b5dce4e32bb8ef9 \
  gen:random-1m:ced5af4becd214182d11249a320c23bf \
  postorder:caterpillar-1m:885df003f53913a25dc0693320f0d9b5 \
  postorder:binary-1m:af5f0f1dbce1cf0e8625c83911b1cb7d \
  postorder:random-1m:0c5c4509414af3d7564eb5cf753f8d2c \
  minmem-approx:caterpillar-1m:17b4484aa42eee9981a1e3690606940b \
  minmem-approx:binary-1m:96d81d43a7557e25f6fb4c350467fbd4 \
  minmem-approx:random-1m:a81f00d9b9ff21cad10ee626f9ee5ebb

perf-smoke: build
	timeout 600 dune exec bin/treetrav.exe -- perf --quick --out BENCH_CORE.json
	grep -q '"kernel": "huge/minmem-approx"' BENCH_CORE.json \
	  || { echo "perf-smoke: huge-family rows missing from BENCH_CORE.json"; exit 1; }
	grep -q '"kernel": "tree/encode", "instance": "random"' BENCH_CORE.json \
	  && grep -q '"kernel": "tree/encode", "instance": "corpus/' BENCH_CORE.json \
	  || { echo "perf-smoke: tree/encode rows missing from BENCH_CORE.json"; exit 1; }
	for k in greedy booking split validate; do \
	  grep -q "\"kernel\": \"sched/$$k\", \"instance\": \"sched-star\"" BENCH_CORE.json \
	    || { echo "perf-smoke: sched/$$k sched-star row missing from BENCH_CORE.json"; exit 1; }; \
	done
	grep -q '"kernel": "sched/validate", "instance": "sched-random"' BENCH_CORE.json \
	  || { echo "perf-smoke: sched/validate rows missing from BENCH_CORE.json"; exit 1; }
	grep -q '"kernel": "minio/fig7", "instance": "corpus"' BENCH_CORE.json \
	  || { echo "perf-smoke: minio/fig7 row missing from BENCH_CORE.json"; exit 1; }
	for i in rand-1500-3.5 arrow-1200 grid3d-10; do \
	  grep -q "\"kernel\": \"pipeline/mindeg\", \"instance\": \"$$i\"" BENCH_CORE.json \
	    || { echo "perf-smoke: pipeline/mindeg $$i row missing from BENCH_CORE.json"; exit 1; }; \
	done
	for pin in $(HUGE_DIGESTS); do \
	  k=$${pin%%:*}; rest=$${pin#*:}; i=$${rest%%:*}; d=$${rest#*:}; \
	  grep -q "\"kernel\": \"huge/$$k\", \"instance\": \"$$i\".*\"result_digest\": \"$$d\"" BENCH_CORE.json \
	    || { echo "perf-smoke: huge/$$k $$i result_digest differs from the pinned $$d"; exit 1; }; \
	done

# Scheduling-tier smoke gate. The same par-schedule/pareto manifest
# must produce bit-identical results digests via direct batch (at two
# --jobs levels), the network server, and a 3-shard cluster — the jobs
# are pure functions of their content-addressed ids, so every serving
# path must agree. A seeded Pareto sweep must also reproduce its
# digest run to run.
sched-smoke: build
	printf 'gen grid2d size=16 :: par-schedule algo=booking procs=4 mem=1.0; par-schedule algo=greedy procs=4 mem=1.5; par-schedule algo=split procs=4 mem=2.0; pareto procs=4 steps=5\ngen banded size=48 :: pareto procs=2 steps=4; par-schedule procs=2\n' > _sched_smoke.manifest
	dune exec bin/treetrav.exe -- batch _sched_smoke.manifest --jobs 2 | grep '^results digest' > _ss_batch.digest
	dune exec bin/treetrav.exe -- batch _sched_smoke.manifest --jobs 1 | grep '^results digest' > _ss_batch2.digest
	cmp _ss_batch.digest _ss_batch2.digest || { echo "sched-smoke: batch digests differ across --jobs"; exit 1; }
	_build/default/bin/treetrav.exe serve --port 0 --workers 2 > _ss_serve.log 2>&1 & \
	  pid=$$!; \
	  for i in $$(seq 1 100); do grep -q '^listening on' _ss_serve.log && break; sleep 0.1; done; \
	  port=$$(sed -n 's/^listening on [0-9.]*:\([0-9]*\).*/\1/p' _ss_serve.log); \
	  test -n "$$port" || { echo "sched-smoke: server did not start"; kill $$pid; exit 1; }; \
	  _build/default/bin/treetrav.exe request --port $$port _sched_smoke.manifest | grep '^results digest' > _ss_serve.digest; \
	  _build/default/bin/treetrav.exe request --port $$port --op shutdown; \
	  wait $$pid
	cmp _ss_batch.digest _ss_serve.digest || { echo "sched-smoke: serve digest diverged from batch"; exit 1; }
	_build/default/bin/treetrav.exe cluster --shards 3 --workers 2 > _ss_cluster.log 2>&1 & \
	  pid=$$!; \
	  for i in $$(seq 1 100); do grep -q 'behind router' _ss_cluster.log && break; sleep 0.1; done; \
	  port=$$(sed -n 's/.*behind router 127.0.0.1:\([0-9]*\).*/\1/p' _ss_cluster.log); \
	  test -n "$$port" || { echo "sched-smoke: cluster did not start"; kill $$pid; exit 1; }; \
	  _build/default/bin/treetrav.exe request --port $$port _sched_smoke.manifest | grep '^results digest' > _ss_cluster.digest; \
	  _build/default/bin/treetrav.exe request --port $$port --op shutdown; \
	  wait $$pid
	cmp _ss_batch.digest _ss_cluster.digest || { echo "sched-smoke: cluster digest diverged from batch"; exit 1; }
	dune exec bin/treetrav.exe -- sched --kind grid2d --size 16 --procs 4 --steps 5 | grep '^pareto digest' > _ss_pareto_a.digest
	dune exec bin/treetrav.exe -- sched --kind grid2d --size 16 --procs 4 --steps 5 | grep '^pareto digest' > _ss_pareto_b.digest
	cmp _ss_pareto_a.digest _ss_pareto_b.digest || { echo "sched-smoke: pareto sweep is not deterministic"; exit 1; }
	rm -f _sched_smoke.manifest _ss_batch.digest _ss_batch2.digest _ss_serve.log _ss_serve.digest \
	  _ss_cluster.log _ss_cluster.digest _ss_pareto_a.digest _ss_pareto_b.digest
	@echo "sched-smoke: batch/serve/cluster digest parity and a reproducible pareto sweep"

# End-to-end smoke of the network service: start a server on an
# ephemeral port, check that request/batch digests agree, drive it
# with a concurrent loadgen burst, then drain it gracefully. The built
# binary is run directly (not via `dune exec`) because the server must
# stay up while other treetrav invocations run.
serve-smoke: build
	printf 'gen grid2d size=16 :: minmem; liu; postorder\ngen banded size=48 :: minio policy=first-fit budget=50%%\n' > _serve_smoke.manifest
	_build/default/bin/treetrav.exe serve --port 0 --workers 2 > _serve_smoke.log 2>&1 & \
	  pid=$$!; \
	  for i in $$(seq 1 100); do grep -q '^listening on' _serve_smoke.log && break; sleep 0.1; done; \
	  port=$$(sed -n 's/^listening on [0-9.]*:\([0-9]*\).*/\1/p' _serve_smoke.log); \
	  test -n "$$port" || { echo "serve-smoke: server did not start"; kill $$pid; exit 1; }; \
	  _build/default/bin/treetrav.exe request --port $$port _serve_smoke.manifest | grep '^results digest' > _serve_smoke_req.digest; \
	  _build/default/bin/treetrav.exe batch _serve_smoke.manifest | grep '^results digest' > _serve_smoke_batch.digest; \
	  cmp _serve_smoke_req.digest _serve_smoke_batch.digest || { echo "serve-smoke: server and batch digests differ"; kill $$pid; exit 1; }; \
	  _build/default/bin/treetrav.exe loadgen --port $$port -c 2 -n 100 | tee _serve_smoke_load.out; \
	  grep -q '^errors: none' _serve_smoke_load.out || { echo "serve-smoke: loadgen saw errors"; kill $$pid; exit 1; }; \
	  _build/default/bin/treetrav.exe request --port $$port --op shutdown; \
	  wait $$pid; \
	  grep -q 'drained cleanly' _serve_smoke.log || { echo "serve-smoke: server did not drain"; exit 1; }
	rm -f _serve_smoke.manifest _serve_smoke.log _serve_smoke_req.digest _serve_smoke_batch.digest _serve_smoke_load.out
	@echo "serve-smoke: digests match, loadgen clean, drained gracefully"

# Chaos determinism gate: a fault-injected run with retries, and a
# journaled run resumed mid-way, must both reproduce the fault-free
# results digest bit for bit.
chaos: build
	printf 'gen grid2d size=16 :: minmem; liu; postorder\ngen grid2d size=16 :: minio policy=first-fit budget=50%%; minio policy=lsnf budget=50%%\ngen random size=60 seed=3 :: minmem; schedule procs=4 mem=1.5\n' > _chaos.manifest
	dune exec bin/treetrav.exe -- batch _chaos.manifest --jobs 2 | grep '^results digest' > _chaos_clean.digest
	dune exec bin/treetrav.exe -- batch _chaos.manifest --jobs 2 --faults crash=0.3,seed=7 --retries 3 | grep '^results digest' > _chaos_faulty.digest
	cmp _chaos_clean.digest _chaos_faulty.digest
	dune exec bin/treetrav.exe -- batch _chaos.manifest --journal _chaos.jnl > /dev/null
	head -4 _chaos.jnl > _chaos_torn.jnl && printf '{"id":"torn' >> _chaos_torn.jnl
	dune exec bin/treetrav.exe -- batch _chaos.manifest --resume _chaos_torn.jnl | grep '^results digest' > _chaos_resumed.digest
	cmp _chaos_clean.digest _chaos_resumed.digest
	rm -f _chaos.manifest _chaos_clean.digest _chaos_faulty.digest _chaos_resumed.digest _chaos.jnl _chaos_torn.jnl
	@echo "chaos: fault-injected and resumed digests match the fault-free run"

# Network chaos gate. Run 1: clean server, direct loadgen. Run 2: a
# crash-injecting server behind the netfault proxy (drops, truncation,
# stalls, tiny-write splits), same seed, retries + idempotency keys.
# Both runs must converge to the same order-insensitive value digest,
# run 2 must force at least one worker restart, and both servers must
# drain with zero active connections. The load runs are wrapped in
# `timeout` so a hung connection fails the gate instead of wedging CI.
chaos-net: build
	_build/default/bin/treetrav.exe serve --port 0 --workers 2 > _chaos_net_clean.log 2>&1 & \
	  pid=$$!; \
	  for i in $$(seq 1 100); do grep -q '^listening on' _chaos_net_clean.log && break; sleep 0.1; done; \
	  port=$$(sed -n 's/^listening on [0-9.]*:\([0-9]*\).*/\1/p' _chaos_net_clean.log); \
	  test -n "$$port" || { echo "chaos-net: clean server did not start"; kill $$pid; exit 1; }; \
	  timeout 120 _build/default/bin/treetrav.exe loadgen --port $$port -c 2 -n 80 --seed 11 --mix all --tag lgclean > _chaos_net_clean.out \
	    || { echo "chaos-net: clean loadgen failed"; kill $$pid; exit 1; }; \
	  grep -q '^errors: none' _chaos_net_clean.out || { echo "chaos-net: clean run saw errors"; kill $$pid; exit 1; }; \
	  _build/default/bin/treetrav.exe request --port $$port --op shutdown; \
	  wait $$pid; \
	  grep -q 'drained cleanly' _chaos_net_clean.log || { echo "chaos-net: clean server did not drain"; exit 1; }
	grep '^value digest' _chaos_net_clean.out > _chaos_net_clean.digest
	_build/default/bin/treetrav.exe serve --port 0 --workers 2 --worker-faults crash=0.15,seed=5 > _chaos_net_chaos.log 2>&1 & \
	  pid=$$!; \
	  for i in $$(seq 1 100); do grep -q '^listening on' _chaos_net_chaos.log && break; sleep 0.1; done; \
	  port=$$(sed -n 's/^listening on [0-9.]*:\([0-9]*\).*/\1/p' _chaos_net_chaos.log); \
	  test -n "$$port" || { echo "chaos-net: chaos server did not start"; kill $$pid; exit 1; }; \
	  timeout 180 _build/default/bin/treetrav.exe loadgen --port $$port -c 2 -n 80 --seed 11 --mix all --tag lgchaos \
	    --retries 6 --read-timeout 5 --chaos 'drop=0.05,trunc=0.03,stall=0.1,split=0.3,max-stall=0.02,seed=9' \
	    > _chaos_net_chaos.out \
	    || { echo "chaos-net: chaos loadgen failed"; kill $$pid; exit 1; }; \
	  grep -q '^errors: none' _chaos_net_chaos.out || { echo "chaos-net: chaos run lost requests"; kill $$pid; exit 1; }; \
	  grep -q '^chaos proxy' _chaos_net_chaos.out || { echo "chaos-net: proxy stats missing"; kill $$pid; exit 1; }; \
	  _build/default/bin/treetrav.exe request --port $$port --op shutdown; \
	  wait $$pid; \
	  grep -q 'drained cleanly' _chaos_net_chaos.log || { echo "chaos-net: chaos server did not drain"; exit 1; }
	grep '^value digest' _chaos_net_chaos.out > _chaos_net_chaos.digest
	cmp _chaos_net_clean.digest _chaos_net_chaos.digest \
	  || { echo "chaos-net: value digests diverged under network faults"; exit 1; }
	grep -Eq '^tt_server_worker_restarts_total [1-9]' _chaos_net_chaos.log \
	  || { echo "chaos-net: no worker restart was forced"; exit 1; }
	grep -q '^tt_server_connections_active 0$$' _chaos_net_clean.log || { echo "chaos-net: clean server leaked connections"; exit 1; }
	grep -q '^tt_server_connections_active 0$$' _chaos_net_chaos.log || { echo "chaos-net: chaos server leaked connections"; exit 1; }
	rm -f _chaos_net_clean.log _chaos_net_clean.out _chaos_net_clean.digest \
	  _chaos_net_chaos.log _chaos_net_chaos.out _chaos_net_chaos.digest
	@echo "chaos-net: digest parity under faults, >=1 worker restart survived, no leaked connections"

# Shard-tier chaos gate. Run 1: one plain server, direct loadgen —
# the reference value digest. Run 2: a 3-shard cluster whose watchdog
# gracefully kills shard 1 after 20 routed ops, driven through the
# netfault proxy with the same seed. Routing is content-addressed and
# jobs are deterministic, so the cluster must converge to the exact
# single-node digest with zero lost admitted requests, and the kill
# must force at least one failover. `timeout` keeps a wedged run from
# hanging CI.
chaos-cluster: build
	_build/default/bin/treetrav.exe serve --port 0 --workers 2 > _cc_single.log 2>&1 & \
	  pid=$$!; \
	  for i in $$(seq 1 100); do grep -q '^listening on' _cc_single.log && break; sleep 0.1; done; \
	  port=$$(sed -n 's/^listening on [0-9.]*:\([0-9]*\).*/\1/p' _cc_single.log); \
	  test -n "$$port" || { echo "chaos-cluster: single server did not start"; kill $$pid; exit 1; }; \
	  timeout 120 _build/default/bin/treetrav.exe loadgen --port $$port -c 2 -n 80 --seed 11 --mix all --tag ccsingle > _cc_single.out \
	    || { echo "chaos-cluster: single-node loadgen failed"; kill $$pid; exit 1; }; \
	  grep -q '^errors: none' _cc_single.out || { echo "chaos-cluster: single-node run saw errors"; kill $$pid; exit 1; }; \
	  _build/default/bin/treetrav.exe request --port $$port --op shutdown; \
	  wait $$pid
	grep '^value digest' _cc_single.out > _cc_single.digest
	_build/default/bin/treetrav.exe cluster --shards 3 --workers 2 --kill-shard 1 --kill-after-requests 20 > _cc_cluster.log 2>&1 & \
	  pid=$$!; \
	  for i in $$(seq 1 100); do grep -q 'behind router' _cc_cluster.log && break; sleep 0.1; done; \
	  port=$$(sed -n 's/.*behind router 127.0.0.1:\([0-9]*\).*/\1/p' _cc_cluster.log); \
	  test -n "$$port" || { echo "chaos-cluster: cluster did not start"; kill $$pid; exit 1; }; \
	  timeout 180 _build/default/bin/treetrav.exe loadgen --port $$port -c 2 -n 80 --seed 11 --mix all --tag cccluster \
	    --retries 6 --read-timeout 5 --connect-timeout 2 \
	    --chaos 'drop=0.05,trunc=0.03,stall=0.1,split=0.3,max-stall=0.02,seed=9' \
	    > _cc_cluster.out \
	    || { echo "chaos-cluster: cluster loadgen failed"; kill $$pid; exit 1; }; \
	  grep -q '^errors: none' _cc_cluster.out || { echo "chaos-cluster: cluster run lost admitted requests"; kill $$pid; exit 1; }; \
	  _build/default/bin/treetrav.exe request --port $$port --op shutdown; \
	  wait $$pid; \
	  grep -q 'cluster drained cleanly' _cc_cluster.log || { echo "chaos-cluster: cluster did not drain"; exit 1; }
	grep '^value digest' _cc_cluster.out > _cc_cluster.digest
	cmp _cc_single.digest _cc_cluster.digest \
	  || { echo "chaos-cluster: cluster digest diverged from the single-node run"; exit 1; }
	grep -Eq '^tt_shard_failovers_total [1-9]' _cc_cluster.log \
	  || { echo "chaos-cluster: shard kill forced no failover"; exit 1; }
	grep -q '^tt_shard_unrouted_total 0$$' _cc_cluster.log \
	  || { echo "chaos-cluster: some requests exhausted the ring"; exit 1; }
	rm -f _cc_single.log _cc_single.out _cc_single.digest \
	  _cc_cluster.log _cc_cluster.out _cc_cluster.digest
	@echo "chaos-cluster: digest parity across 1 node vs 3 shards with a mid-run kill, >=1 failover, zero lost requests"

# Self-healing gate. First the determinism contract: the nemesis
# schedule is a pure function of the seed, so two --plan-only runs
# must be byte-identical. Then the full run: a seeded
# kill/stall/partition/join/leave schedule against a supervised
# 3-shard cluster under retrying load must converge to the clean
# single-node value digest with >=1 supervised restart, >=1 breaker
# open->close cycle, >=1 ring membership change, zero admitted
# requests lost or contradicted, and full recovery within the
# quiescence bound — all asserted by the subcommand's own exit code.
# Overload chaos gate. The seeded overload nemesis drives a 3-shard
# proxied cluster at 4x its measured capacity with one shard stalled
# mid-connection, then checks its own invariants: zero untyped losses,
# every ok within deadline, typed sheds only, batch browns out first,
# interactive goodput holds the floor, >= 1 hedge won, and the
# completed subset matches a pristine re-solve. Run twice: the
# `overload-summary` lines (config, invariant verdicts, full-set
# oracle digest) must match byte-for-byte.
chaos-overload: build
	timeout 300 _build/default/bin/treetrav.exe overload --seed 17 > _ov_run_a.out 2>&1 \
	  || { cat _ov_run_a.out; echo "chaos-overload: run A failed"; exit 1; }
	cat _ov_run_a.out
	timeout 300 _build/default/bin/treetrav.exe overload --seed 17 > _ov_run_b.out 2>&1 \
	  || { cat _ov_run_b.out; echo "chaos-overload: run B failed"; exit 1; }
	grep '^overload-summary' _ov_run_a.out > _ov_sum_a.txt
	grep '^overload-summary' _ov_run_b.out > _ov_sum_b.txt
	cmp _ov_sum_a.txt _ov_sum_b.txt \
	  || { echo "chaos-overload: summaries differ between identical seeded runs"; exit 1; }
	rm -f _ov_run_a.out _ov_run_b.out _ov_sum_a.txt _ov_sum_b.txt
	@echo "chaos-overload: deterministic verdicts; typed sheds, deadline-clean oks, brownout ordering, hedge win, oracle digest parity"

chaos-nemesis: build
	_build/default/bin/treetrav.exe nemesis --plan-only --seed 11 --steps 8 > _nx_plan_a.txt
	_build/default/bin/treetrav.exe nemesis --plan-only --seed 11 --steps 8 > _nx_plan_b.txt
	cmp _nx_plan_a.txt _nx_plan_b.txt \
	  || { echo "chaos-nemesis: same seed produced different schedules"; exit 1; }
	timeout 300 _build/default/bin/treetrav.exe nemesis --seed 11 > _nx_run.out 2>&1 \
	  || { cat _nx_run.out; echo "chaos-nemesis: nemesis run failed"; exit 1; }
	cat _nx_run.out
	grep -q '^nemesis invariants hold' _nx_run.out \
	  || { echo "chaos-nemesis: invariants line missing"; exit 1; }
	rm -f _nx_plan_a.txt _nx_plan_b.txt _nx_run.out
	@echo "chaos-nemesis: deterministic schedule; digest parity, supervised restart, breaker cycle, ring change, zero lost admitted requests"

clean:
	dune clean
