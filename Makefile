# Convenience targets; everything also works as the plain commands in
# the README (the docs-check target verifies exactly that).

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test test-fast docs-check examples bench bench-compare bench-quick bench-baseline precommit invariant-smoke perfbench perfbench-ab perfbench-digests

test:
	$(PYTHON) -m pytest -q

# Deselects @pytest.mark.slow (the full-PHY-heavy deep sweeps); the
# full `make test` still runs everything.
test-fast:
	$(PYTHON) -m pytest -q -m "not slow"

# The documented pre-commit gate: the fast test selection, the
# CI-affordable benchmark comparison, and the invariant smoke.
precommit: test-fast bench-quick invariant-smoke

# Fast end-to-end invariant pass: runs a bursty and a faulty scenario
# under validation="cheap", so a broken conservation law fails the gate
# even if no unit test covers it.
invariant-smoke:
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-20-bursty --protocols n+ --runs 1 --duration-ms 20 --validation cheap
	$(PYTHON) -m repro.cli sweep --scenario dense-lan-20-faulty --protocols n+ --runs 1 --duration-ms 20 --validation cheap

# Fails when README/ARCHITECTURE code blocks or the examples go stale.
docs-check:
	$(PYTHON) -m pytest -q tests/test_docs.py tests/test_examples_smoke.py

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

# One-command regression gate: fails when any tracked benchmark regresses
# >25% against the committed BENCH_core.json baseline.
bench: bench-compare

bench-compare:
	$(PYTHON) benchmarks/run_all.py --compare

# The CI-affordable gate: skips the 500-station tier and the kept
# reference implementations (each has a faster tracked sibling).
bench-quick:
	$(PYTHON) benchmarks/run_all.py --compare --quick

bench-baseline:
	$(PYTHON) benchmarks/run_all.py

# One end-to-end benchmark workload with its per-layer trace, the
# headline one unless named (`make perfbench WORKLOAD=faulty-auto` shows
# the fidelity-probe layer; `python3 perfbench/run.py` runs every workload).
WORKLOAD ?= fig12-paper

perfbench:
	python3 perfbench/run.py --workload $(WORKLOAD) --seconds 10 --trace 1

# Same-host A/B of one workload: REF (a git ref, checked out into a
# temporary worktree) against this tree, PAIRS interleaved run pairs of
# SECONDS each, e.g. `make perfbench-ab REF=main WORKLOAD=dense-500-bursty`
# or `make perfbench-ab WORKLOAD=sweep-replay SECONDS=10`.
REF ?= HEAD
PAIRS ?= 10
SEED ?= 1
SECONDS ?= 20

perfbench-ab:
	python3 benchmarks/perfbench_ab.py $(REF) --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED) --seconds $(SECONDS)

# The seed-1 result digest of every workload (each one's fixed op window,
# untimed and untraced): a faithful optimisation leaves all four lines
# unchanged.  Fails when a workload's run fails or reports a failed check.
PERFBENCH_WORKLOADS = fig12-paper dense-500-bursty faulty-auto sweep-replay

perfbench-digests:
	@for w in $(PERFBENCH_WORKLOADS); do \
		out=$$(python3 perfbench/run.py --workload $$w --seconds 0 --trace 0 --seed 1); \
		status=$$?; \
		printf '%s %s\n' $$w "$$(printf '%s\n' "$$out" | grep '^result_digest:')"; \
		[ $$status -eq 0 ] || exit $$status; \
	done
