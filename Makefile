# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-smoke perfbench-smoke examples explore-smoke xform-smoke emit-smoke iter-smoke fuzz-smoke fault-smoke trace-smoke serve-smoke fleet-smoke check clean

all: build

build:
	dune build @all

test:
	dune runtest

# Tiny end-to-end sweep: `hlsopt explore` on chain3 must produce a
# non-empty Pareto frontier.
explore-smoke:
	@out=$$(dune exec bin/hlsopt.exe -- explore --builtin chain3 --latency 2:4 --jobs 2 --json); \
	echo "$$out" | grep -q '"frontier":' || { echo "explore-smoke: no frontier in output"; exit 1; }; \
	if echo "$$out" | grep -q '"frontier": \[\]'; then echo "explore-smoke: empty frontier"; exit 1; fi; \
	echo "explore-smoke: ok (non-empty frontier)"

# Transformation smoke: the standard and aggressive recipes over every
# registry workload, with the equivalence gate on every pass.  Any
# REJECTED line means a catalog pass broke a real workload and the gate
# caught it — either way the build must not ship it silently.
xform-smoke:
	@dune build bin/hlsopt.exe; \
	hlsopt=_build/default/bin/hlsopt.exe; \
	for w in $$($$hlsopt list | awk '{print $$1}'); do \
	  for r in standard aggressive; do \
	    out=$$($$hlsopt transform --builtin $$w --recipe $$r --verify every_pass) \
	      || { echo "xform-smoke: $$w/$$r failed"; exit 1; }; \
	    echo "$$out" | grep -q 'REJECTED' \
	      && { echo "xform-smoke: $$w/$$r had a rejected pass"; \
	           echo "$$out" | head -5; exit 1; }; \
	    echo "$$out" | grep -q ', 0 rejected' \
	      || { echo "xform-smoke: $$w/$$r missing summary"; exit 1; }; \
	  done; \
	done; \
	echo "xform-smoke: ok (standard + aggressive verified on every workload)"

# Emission smoke: every registry workload at latency 14 prints its one
# elaborated netlist as VHDL and as Verilog plus testbench.  Both must
# exit 0 and end in the closing line of their language.
emit-smoke:
	@dune build bin/hlsopt.exe; \
	hlsopt=_build/default/bin/hlsopt.exe; \
	for w in $$($$hlsopt list | awk '{print $$1}'); do \
	  out=$$($$hlsopt emit-vhdl --builtin $$w -l 14 --netlist) \
	    || { echo "emit-smoke: emit-vhdl --netlist $$w failed"; exit 1; }; \
	  last=$$(echo "$$out" | tail -1); \
	  test "$$last" = "end structural;" \
	    || { echo "emit-smoke: $$w VHDL ends in '$$last'"; exit 1; }; \
	  out=$$($$hlsopt emit-verilog --builtin $$w -l 14 --testbench) \
	    || { echo "emit-smoke: emit-verilog --testbench $$w failed"; exit 1; }; \
	  last=$$(echo "$$out" | tail -1); \
	  test "$$last" = "endmodule" \
	    || { echo "emit-smoke: $$w Verilog ends in '$$last'"; exit 1; }; \
	done; \
	echo "emit-smoke: ok (netlist VHDL and Verilog testbench for every workload)"

# Feedback-iteration smoke: `hlsopt iterate` on three registry workloads
# at a latency with slack inside its clock tier.  The loop must never
# end worse than the one-shot schedule, and must strictly improve on at
# least two of the three — the subsystem's acceptance bar.  Then the
# iterate text of every registry workload at λ 8, 14 and 16 must match
# test/golden/iterate.txt byte for byte.
iter-smoke:
	@dune build bin/hlsopt.exe; \
	hlsopt=_build/default/bin/hlsopt.exe; \
	improved=0; \
	for w in adpcm-decoder fir8 random240; do \
	  out=$$($$hlsopt iterate --builtin $$w --latency 14 --rounds 8) \
	    || { echo "iter-smoke: $$w failed"; exit 1; }; \
	  line=$$(echo "$$out" | grep '^latency '); \
	  ini=$$(echo "$$line" | sed -n 's/^latency \([0-9]*\) -> .*/\1/p'); \
	  fin=$$(echo "$$line" | sed -n 's/^latency [0-9]* -> \([0-9]*\) cycles.*/\1/p'); \
	  test -n "$$ini" && test -n "$$fin" \
	    || { echo "iter-smoke: $$w summary line missing"; echo "$$out" | tail -3; exit 1; }; \
	  test "$$fin" -le "$$ini" \
	    || { echo "iter-smoke: $$w ended worse than one-shot ($$ini -> $$fin)"; exit 1; }; \
	  if test "$$fin" -lt "$$ini"; then improved=$$((improved + 1)); fi; \
	  echo "iter-smoke: $$w $$ini -> $$fin cycles"; \
	done; \
	test $$improved -ge 2 \
	  || { echo "iter-smoke: improvement on $$improved workload(s), need >= 2"; exit 1; }; \
	out=_build/iter_smoke_golden.txt; \
	for w in $$($$hlsopt list | awk '{print $$1}'); do \
	  for l in 8 14 16; do \
	    echo "# iterate -b $$w -l $$l"; \
	    $$hlsopt iterate -b $$w -l $$l || echo "exit $$?"; \
	  done; \
	done > $$out; \
	diff -u test/golden/iterate.txt $$out \
	  || { echo "iter-smoke: iterate answers differ from test/golden/iterate.txt"; exit 1; }; \
	echo "iter-smoke: ok (never worse, improved $$improved/3 workloads, golden iterate answers)"

# The timing bench (reference vs Bitnet pairs, each timed once in
# interleaved rounds with its spread) and a sanity check of the JSON it
# emits.  --assert fails the run when the arrival/deadline kernels, the
# one-pass fragmentation (graph and net together, against the
# pre-rewrite rebuild plus a separate net build) or the binder is slower
# than its reference on any registry workload at its default latency
# (arrival/deadline/fragment pairs the table already timed are judged
# from the table; the binder pair is always timed), or
# the equivalence checker against its oracle on
# every non-stress one, the Verilog printer against its pre-rewrite
# oracle on dct8, random240 and one generated design, the graph
# writer against the Format printer on one generated design, dct8 and
# random480, and the v1 JSON codec against its pre-rewrite oracle
# (encoding and decoding a chain3 report, a fir2 schedule and a dct8
# Verilog emit response) — a perf regression gate, not just a smoke
# test.  Then a random480 report (whose equivalence check took 25 s with
# the per-vector checker) must finish within 10 s.  The committed
# BENCH_timing.json is `dune exec bench/main.exe -- timing --json`: the
# same timings, without the gate.
bench-smoke:
	@out=_build/bench_smoke_timing.json; \
	log=_build/bench_smoke_timing.log; \
	dune exec bench/main.exe -- timing --json --assert --out $$out > $$log \
	  || { echo "bench-smoke: timing bench failed"; tail -20 $$log; exit 1; }; \
	grep -q '"bench": "timing"' $$out || { echo "bench-smoke: bad $$out"; exit 1; }; \
	grep -q '"analysis": "pipeline_sweep"' $$out || { echo "bench-smoke: no pipeline_sweep result"; exit 1; }; \
	grep -q '"speedup":' $$out || { echo "bench-smoke: no speedup estimates"; exit 1; }; \
	grep -q '"regions":' $$out || { echo "bench-smoke: no kernel shape section"; exit 1; }; \
	grep -q 'bench-assert: ok' $$log || { echo "bench-smoke: kernel-vs-reference assertion missing"; tail -20 $$log; exit 1; }; \
	grep -q '"checker_ns_per_run":' $$out || { echo "bench-smoke: no equivalence section"; exit 1; }; \
	grep -q '"reference_iqr_ns":' $$out || { echo "bench-smoke: no spread in the results section"; exit 1; }; \
	grep -q '"checker_iqr_ns":' $$out || { echo "bench-smoke: no spread in the equivalence section"; exit 1; }; \
	dune build bin/hlsopt.exe; \
	t0=$$(date +%s%N); \
	./_build/default/bin/hlsopt.exe report -b random480 -l 14 > $$log \
	  || { echo "bench-smoke: random480 report failed"; tail -5 $$log; exit 1; }; \
	ms=$$(( ($$(date +%s%N) - t0) / 1000000 )); \
	grep -q 'equivalence check: OK' $$log || { echo "bench-smoke: random480 report not checked"; exit 1; }; \
	[ $$ms -le 10000 ] || { echo "bench-smoke: random480 report took $$ms ms (limit 10 s)"; exit 1; }; \
	echo "bench-smoke: ok (timing bench runs, kernels and checker beat references, JSON sane, random480 report in $$ms ms)"

# Repository-benchmark smoke: perfbench's own selftest.  Every workload's
# answers must pass the replay gate, every planted wrong answer must be
# rejected, traced and untraced replays must agree, and the metric names
# must match BENCHMARK.json and perfbench/layers.json.
perfbench-smoke:
	@dune build @perfbench/selftest \
	  || { echo "perfbench-smoke: perfbench selftest failed"; exit 1; }; \
	echo "perfbench-smoke: ok (replay gate, planted faults, metric names)"

# Fuzzing smoke: a fixed-seed, budgeted run of all three lanes (spec
# generation/emission round trips, differential transforms and
# scheduling, wire-codec round trips) must come back with zero
# mismatches.  `hlsopt fuzz` exits 1 on any mismatch, so the gate is
# the exit code plus sanity greps over the rendered summary.
fuzz-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf '$$dir EXIT; \
	out=$$(dune exec bin/hlsopt.exe -- fuzz --seed 7 --budget 210 --max-seconds 120 --dir $$dir/corpus) \
	  || { echo "fuzz-smoke: fuzz run failed or found mismatches"; echo "$$out" | tail -6; exit 1; }; \
	echo "$$out" | grep -q '^seed 7: .* 0 mismatch(es)' \
	  || { echo "fuzz-smoke: summary line missing"; echo "$$out" | tail -6; exit 1; }; \
	for lane in spec diff codec; do \
	  echo "$$out" | grep -q "^lane $$lane" \
	    || { echo "fuzz-smoke: $$lane lane did not run"; exit 1; }; \
	done; \
	echo "fuzz-smoke: ok (210 cases over spec/diff/codec, zero mismatches)"

# Resilience smoke: the sweep must ride out injected faults.
#  1. A transient per-job fault with retries enabled still yields a
#     complete frontier and zero failures, exit 0.
#  2. Dying between the store write and its rename (the worst crash
#     moment) exits non-zero but leaves the write-ahead journal behind.
#  3. `--resume` replays that journal: every point is recovered, nothing
#     is recomputed, and the frontier is non-empty again.
#  4. Network faults: a daemon armed with drop-conn or truncate-write,
#     and a router armed with drop-conn in front of an unfaulted daemon,
#     still answer a retrying `hlsopt call`.
fault-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf '$$dir EXIT; \
	out=$$(HLS_FAULTS="fail-job=0:1" dune exec bin/hlsopt.exe -- explore --builtin chain3 --latency 2:4 --retries 3 --json) \
	  || { echo "fault-smoke: transient-fault run failed"; exit 1; }; \
	echo "$$out" | grep -q '"failures": \[\]' || { echo "fault-smoke: transient fault not retried away"; exit 1; }; \
	if echo "$$out" | grep -q '"frontier": \[\]'; then echo "fault-smoke: empty frontier after retries"; exit 1; fi; \
	HLS_FAULTS="die-before-rename" dune exec bin/hlsopt.exe -- explore --builtin chain3 --latency 2:4 --cache $$dir/c.json --json >/dev/null 2>&1; \
	test $$? -ne 0 || { echo "fault-smoke: die-before-rename should exit non-zero"; exit 1; }; \
	test -s $$dir/c.json.wal || { echo "fault-smoke: no journal left by the crashed run"; exit 1; }; \
	out=$$(dune exec bin/hlsopt.exe -- explore --builtin chain3 --latency 2:4 --cache $$dir/c.json --resume --json 2>$$dir/err) \
	  || { echo "fault-smoke: resume run failed"; exit 1; }; \
	grep -q 'resuming: 3 points recovered' $$dir/err || { echo "fault-smoke: journal not replayed"; cat $$dir/err; exit 1; }; \
	echo "$$out" | grep -q '"hits": 3' || { echo "fault-smoke: resumed points recomputed instead of reused"; exit 1; }; \
	if echo "$$out" | grep -q '"frontier": \[\]'; then echo "fault-smoke: empty frontier after resume"; exit 1; fi; \
	dune build bin/hlsopt.exe; \
	hlsopt=_build/default/bin/hlsopt.exe; \
	req='{"v":1,"id":"n1","method":"parse","params":{"spec":{"builtin":"chain3"}}}'; \
	HLS_FAULTS="drop-conn=1" $$hlsopt serve --socket $$dir/f1.sock 2>/dev/null & fpid=$$!; \
	for i in $$(seq 50); do test -S $$dir/f1.sock && break; sleep 0.1; done; \
	echo "$$req" | $$hlsopt call --connect $$dir/f1.sock --retries 2 --backoff 0.05 > $$dir/f1.txt \
	  || { echo "fault-smoke: call did not ride out a dropped connection"; kill $$fpid; exit 1; }; \
	grep -q '"ok":true' $$dir/f1.txt || { echo "fault-smoke: no answer after drop-conn retry"; kill $$fpid; exit 1; }; \
	kill -TERM $$fpid; wait $$fpid; \
	HLS_FAULTS="truncate-write=1" $$hlsopt serve --socket $$dir/f2.sock 2>/dev/null & fpid=$$!; \
	for i in $$(seq 50); do test -S $$dir/f2.sock && break; sleep 0.1; done; \
	echo "$$req" | $$hlsopt call --connect $$dir/f2.sock --retries 2 --backoff 0.05 > $$dir/f2.txt \
	  || { echo "fault-smoke: call did not ride out a truncated response"; kill $$fpid; exit 1; }; \
	grep -q '"ok":true' $$dir/f2.txt || { echo "fault-smoke: no answer after truncate-write retry"; kill $$fpid; exit 1; }; \
	kill -TERM $$fpid; wait $$fpid; \
	$$hlsopt serve --socket $$dir/b.sock 2>/dev/null & bpid=$$!; \
	for i in $$(seq 50); do test -S $$dir/b.sock && break; sleep 0.1; done; \
	HLS_FAULTS="drop-conn=1" $$hlsopt route --backends $$dir/b.sock --socket $$dir/r.sock 2>/dev/null & fpid=$$!; \
	for i in $$(seq 50); do test -S $$dir/r.sock && break; sleep 0.1; done; \
	echo "$$req" | $$hlsopt call --connect $$dir/r.sock --retries 2 --backoff 0.05 > $$dir/r.txt \
	  || { echo "fault-smoke: routed call did not ride out a dropped connection"; kill $$fpid $$bpid; exit 1; }; \
	grep -q '"ok":true' $$dir/r.txt || { echo "fault-smoke: no routed answer after drop-conn retry"; kill $$fpid $$bpid; exit 1; }; \
	kill -TERM $$fpid; wait $$fpid; kill -TERM $$bpid; wait $$bpid; \
	echo "$$req" | $$hlsopt call --connect $$dir/no-daemon.sock --retries 2 --backoff 0.01 >/dev/null 2>&1; \
	test $$? -eq 8 || { echo "fault-smoke: give-up on a dead socket should exit 8 (unavailable)"; exit 1; }; \
	echo "fault-smoke: ok (retries, crash journal, resume, and network faults on the daemon and the router all hold)"

# Telemetry smoke: a 2-worker sweep under --trace must leave a
# Perfetto-loadable Chrome trace with every pipeline phase span and one
# track per worker (main + 2), and the netlist span must show up on an
# emit path.  `hlsopt trace-validate` does the structural checking.
trace-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf '$$dir EXIT; \
	dune exec bin/hlsopt.exe -- explore --builtin adpcm-decoder --latency 4:6 --jobs 2 --trace $$dir/sweep.json >/dev/null 2>&1 \
	  || { echo "trace-smoke: traced explore failed"; exit 1; }; \
	dune exec bin/hlsopt.exe -- trace-validate $$dir/sweep.json \
	  --expect kernel,bitnet,arrival,mobility,fragment,schedule,bind,bind.view,bind.pack,bind.storage,job --min-tracks 3 >/dev/null \
	  || { echo "trace-smoke: sweep trace failed validation"; exit 1; }; \
	dune exec bin/hlsopt.exe -- emit-vhdl --builtin chain3 --netlist --trace $$dir/emit.json >/dev/null 2>&1 \
	  || { echo "trace-smoke: traced emit-vhdl failed"; exit 1; }; \
	dune exec bin/hlsopt.exe -- trace-validate $$dir/emit.json --expect netlist >/dev/null \
	  || { echo "trace-smoke: emit trace failed validation"; exit 1; }; \
	echo "trace-smoke: ok (traces parse, phase spans and worker tracks present)"

# Server smoke: the daemon must be indistinguishable from the one-shot
# CLI, under load, and die cleanly.
#  1. 4 concurrent clients x 25 mixed requests each over --connect,
#     byte-compared against the same commands run one-shot.
#  2. A pipelined burst against a 1-deep admission queue must shed with
#     "overloaded" responses instead of queueing without bound.
#  3. SIGTERM drains in-flight work and removes the socket before exit.
serve-smoke:
	@dune build bin/hlsopt.exe; \
	hlsopt=_build/default/bin/hlsopt.exe; \
	dir=$$(mktemp -d); trap 'rm -rf '$$dir EXIT; \
	run_mix() { \
	  for i in 1 2 3 4 5; do \
	    $$hlsopt report --builtin chain3 --latency 3 "$$@"; \
	    $$hlsopt parse --builtin fir2 "$$@"; \
	    $$hlsopt schedule --builtin chain3 --latency 3 "$$@"; \
	    $$hlsopt emit-verilog --builtin chain3 --latency 3 "$$@"; \
	    $$hlsopt report --builtin fir2 --latency 4 "$$@"; \
	  done; \
	}; \
	run_mix > $$dir/oneshot.txt || { echo "serve-smoke: one-shot CLI failed"; exit 1; }; \
	$$hlsopt serve --socket $$dir/s.sock --queue 64 --jobs 2 2>$$dir/serve.log & pid=$$!; \
	for i in $$(seq 50); do test -S $$dir/s.sock && break; sleep 0.1; done; \
	test -S $$dir/s.sock || { echo "serve-smoke: daemon never bound its socket"; exit 1; }; \
	cpids=""; \
	for c in 1 2 3 4; do \
	  ( run_mix --connect $$dir/s.sock > $$dir/client$$c.txt ) & cpids="$$cpids $$!"; \
	done; wait $$cpids; \
	for c in 1 2 3 4; do \
	  cmp -s $$dir/oneshot.txt $$dir/client$$c.txt \
	    || { echo "serve-smoke: client $$c output differs from one-shot CLI"; \
	         diff $$dir/oneshot.txt $$dir/client$$c.txt | head; kill $$pid; exit 1; }; \
	done; \
	kill -TERM $$pid; wait $$pid; st=$$?; \
	test $$st -eq 0 || { echo "serve-smoke: daemon exited $$st on SIGTERM"; exit 1; }; \
	grep -q 'drained, exiting' $$dir/serve.log || { echo "serve-smoke: no drain message"; cat $$dir/serve.log; exit 1; }; \
	test ! -e $$dir/s.sock || { echo "serve-smoke: socket file left behind"; exit 1; }; \
	$$hlsopt serve --socket $$dir/q.sock --queue 1 2>/dev/null & qpid=$$!; \
	for i in $$(seq 50); do test -S $$dir/q.sock && break; sleep 0.1; done; \
	req='{"v":1,"id":"b","method":"report","params":{"spec":{"builtin":"elliptic"},"latency":6}}'; \
	for i in $$(seq 16); do echo "$$req"; done \
	  | $$hlsopt call --connect $$dir/q.sock --burst > $$dir/burst.txt \
	  || { echo "serve-smoke: burst call failed"; kill $$qpid; exit 1; }; \
	kill -TERM $$qpid; wait $$qpid; \
	grep -q '"class":"overloaded"' $$dir/burst.txt \
	  || { echo "serve-smoke: 1-deep queue never shed under a 16-request burst"; exit 1; }; \
	grep -q '"ok":true' $$dir/burst.txt \
	  || { echo "serve-smoke: burst shed everything, nothing admitted"; exit 1; }; \
	echo "serve-smoke: ok (byte-identical under concurrency, bounded queue sheds, SIGTERM drains)"

# Fleet smoke: a router over 3 spawned backends must be indistinguishable
# from a single daemon, survive losing a backend, and die cleanly.
#  1. 100 mixed pipelined requests through the router, with one backend
#     SIGKILLed mid-burst: zero lost responses, and the (id-sorted) answer
#     set is byte-identical to a one-shot daemon's.
#  2. The killed backend is respawned by the router.
#  3. An already-expired deadline_ms is shed as a typed retryable timeout.
#  4. A multi-latency explore is answered through the router (it runs
#     whole on the backend that owns its digest).
#  5. SIGTERM drains the router and its children, exit 0.
fleet-smoke:
	@dune build bin/hlsopt.exe; \
	hlsopt=_build/default/bin/hlsopt.exe; \
	dir=$$(mktemp -d); trap 'rm -rf '$$dir EXIT; \
	: > $$dir/req.ndjson; \
	for i in $$(seq 100); do \
	  case $$((i % 3)) in \
	    0) echo '{"v":1,"id":"q'$$i'","method":"parse","params":{"spec":{"builtin":"chain3"}}}' ;; \
	    1) echo '{"v":1,"id":"q'$$i'","method":"report","params":{"spec":{"builtin":"fir2"},"latency":4}}' ;; \
	    *) echo '{"v":1,"id":"q'$$i'","method":"report","params":{"spec":{"builtin":"chain3"},"latency":3}}' ;; \
	  esac >> $$dir/req.ndjson; \
	done; \
	$$hlsopt serve --socket $$dir/ref.sock --queue 128 2>/dev/null & rpid=$$!; \
	for i in $$(seq 50); do test -S $$dir/ref.sock && break; sleep 0.1; done; \
	$$hlsopt call --connect $$dir/ref.sock --burst < $$dir/req.ndjson | sort > $$dir/expected.txt \
	  || { echo "fleet-smoke: reference daemon run failed"; kill $$rpid; exit 1; }; \
	kill -TERM $$rpid; wait $$rpid; \
	$$hlsopt route --socket $$dir/r.sock --spawn 3 --spawn-dir $$dir/fleet \
	  --queue 128 --probe-interval 0.1 --cooldown 0.5 --retries 4 --backoff 0.02 2>$$dir/route.log & pid=$$!; \
	for i in $$(seq 100); do test -S $$dir/r.sock && break; sleep 0.1; done; \
	test -S $$dir/r.sock || { echo "fleet-smoke: router never bound its socket"; cat $$dir/route.log; exit 1; }; \
	( sleep 0.4; \
	  vpid=$$(sed -n 's/.*spawned backend 0 (pid \([0-9]*\)).*/\1/p' $$dir/route.log | head -1); \
	  test -n "$$vpid" && kill -9 $$vpid 2>/dev/null ) & kpid=$$!; \
	$$hlsopt call --connect $$dir/r.sock --burst < $$dir/req.ndjson > $$dir/got.txt \
	  || { echo "fleet-smoke: routed burst failed"; kill $$pid; exit 1; }; \
	wait $$kpid; \
	test $$(wc -l < $$dir/got.txt) -eq 100 \
	  || { echo "fleet-smoke: lost requests ($$(wc -l < $$dir/got.txt)/100 answered)"; kill $$pid; exit 1; }; \
	sort $$dir/got.txt > $$dir/got.sorted; \
	cmp -s $$dir/expected.txt $$dir/got.sorted \
	  || { echo "fleet-smoke: routed responses differ from the one-shot daemon"; \
	       diff $$dir/expected.txt $$dir/got.sorted | head; kill $$pid; exit 1; }; \
	for i in $$(seq 100); do grep -q respawned $$dir/route.log && break; sleep 0.1; done; \
	grep -q respawned $$dir/route.log \
	  || { echo "fleet-smoke: killed backend never respawned"; cat $$dir/route.log; kill $$pid; exit 1; }; \
	echo '{"v":1,"id":"dl","deadline_ms":1,"method":"parse","params":{"spec":{"builtin":"chain3"}}}' \
	  | $$hlsopt call --connect $$dir/r.sock > $$dir/dl.txt \
	  || { echo "fleet-smoke: deadline probe failed"; kill $$pid; exit 1; }; \
	grep -q '"class":"timeout"' $$dir/dl.txt && grep -q '"retryable":true' $$dir/dl.txt \
	  || { echo "fleet-smoke: expired deadline_ms not shed as a retryable timeout"; cat $$dir/dl.txt; kill $$pid; exit 1; }; \
	echo '{"v":1,"id":"ex","method":"explore","params":{"spec":{"builtin":"chain3"},"latencies":[2,3,4]}}' \
	  | $$hlsopt call --connect $$dir/r.sock > $$dir/ex.txt \
	  || { echo "fleet-smoke: routed explore failed"; kill $$pid; exit 1; }; \
	grep -q '"ok":true' $$dir/ex.txt && grep -q '"kind":"explore"' $$dir/ex.txt \
	  || { echo "fleet-smoke: routed explore not answered"; head -c 300 $$dir/ex.txt; echo; kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid; st=$$?; \
	test $$st -eq 0 || { echo "fleet-smoke: router exited $$st on SIGTERM"; exit 1; }; \
	grep -q 'router drained' $$dir/route.log || { echo "fleet-smoke: no drain message"; cat $$dir/route.log; exit 1; }; \
	echo "fleet-smoke: ok (zero loss under SIGKILL, byte-identical answers, respawn, deadline shed, routed explore, clean drain)"

check: build test perfbench-smoke explore-smoke xform-smoke emit-smoke iter-smoke fuzz-smoke bench-smoke fault-smoke trace-smoke serve-smoke fleet-smoke

bench:
	dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/fragmentation_anatomy.exe
	dune exec examples/elliptic_flow.exe
	dune exec examples/adpcm_flow.exe
	dune exec examples/latency_sweep.exe
	dune exec examples/resource_tradeoff.exe

clean:
	dune clean
