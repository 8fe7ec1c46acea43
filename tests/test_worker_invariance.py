"""The byte contract: nine `possibly` invocations, run in process through
cli.main at 1, 2 and 3 workers, write the same bytes at every count, and
those bytes match tests/worker_invariance.sha256. The host is made to
report 3 CPUs, so the pool has three processes on any machine.

Every file depends on parameters that the CLI resolves, and between them
they cover the random-one, fusion-off, probabilistic and negative-theta
draw schedules, which the benchmark digests never run. One invocation's
batches also fall on both sides of run_batch's choice between stepping by
dependency level and stepping one step at a time, so its bytes compare the
two.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from possibly import engine, harness
from possibly.cli import main, parse_args

PINS = Path(__file__).with_name("worker_invariance.sha256")
PINNED_NUMPY = "2.4.6"

COMMON = ["--seed", "3", "--steps", "50", "--noise", "0.3"]
# argv and its --out below out-w<workers>
INVOCATIONS = [
    (["sweep", "evidence-rate", "0.1,0.5,0.9", *COMMON, "--runs", "5"], ""),
    (["sweep", "theta", "0.1,1,10,100", *COMMON, "--runs", "3"], ""),
    (["preset", "fig3", "--seed", "3"], ""),
    (["run", *COMMON, "--runs", "4"], ""),
    (["run", *COMMON, "--runs", "4", "--evidence-rate", "1",
      "--fusion-adoption", "random-one"], "ro"),
    *((["run", "--model", "probabilistic", *COMMON, "--runs", "4",
        "--evidence-rate", "0.5", "--fusion-adoption", adoption],
      f"prob-{adoption}") for adoption in ("both", "random-one")),
    (["run", "--fusion", "off", *COMMON, "--runs", "4",
      "--evidence-rate", "0.5"], "nofusion"),
    # a negative and a positive theta: two Frank branches, two groups
    (["sweep", "theta", "-1,1", *COMMON, "--runs", "3"], "branches"),
]

# (sha256, path below the output root) per pinned file
PINNED = [tuple(line.split()) for line in PINS.read_text().splitlines()]

WORKERS = (1, 2, 3)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("worker-invariance")
    # a pool of the 3 workers asked for, whatever the host's CPUs; it is
    # closed before and after, so none started under the patch outlives it
    harness._close_pool()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        try:
            for workers in WORKERS:
                for argv, sub in INVOCATIONS:
                    out = root / f"out-w{workers}" / sub
                    assert main([*argv, "--workers", str(workers),
                                 "--out", str(out)]) == 0
        finally:
            harness._close_pool()
    return root


@pytest.mark.parametrize("digest, name", PINNED, ids=[name for _, name in PINNED])
def test_bytes_match_at_both_worker_counts_and_the_pin(root, digest, name):
    one = (root / name).read_bytes()
    for workers in WORKERS[1:]:
        other = root / name.replace("out-w1/", f"out-w{workers}/", 1)
        assert one == other.read_bytes(), \
            f"{name} differs between 1 and {workers} workers"
    actual = hashlib.sha256(one).hexdigest()
    assert actual == digest, (
        f"{name}: sha256 {actual} != pinned {digest}; the pins hold for "
        f"numpy {PINNED_NUMPY} only, and this is numpy {np.__version__}")


def _sparse(runs, workers):
    # whether each batch of runs at this worker count is stepped by level
    return {engine._sparse([runs[i] for i in batch])
            for batch in harness._batches(runs, workers)}


def test_an_invocation_steps_its_runs_both_ways():
    # the runs in one batch at 1 worker, and dealt into 2 at 2 workers
    crossing = []
    for argv, _ in INVOCATIONS:
        if argv[0] == "preset":
            continue
        runs = harness._runs_for(parse_args(argv).spec)
        one, two = _sparse(runs, 1), _sparse(runs, 2)
        if len(one) == 1 and two - one:
            crossing.append(" ".join(argv))
    # run --evidence-rate 1 --fusion-adoption random-one with 4 runs
    # expects 400 evidence rows per step at 1 worker, and 200 and 200 at 2;
    # sweep evidence-rate 0.1,0.5,0.9 with 5 runs expects 750 at 1 worker,
    # and 400 and 350 at 2, all stepped one step at a time
    assert crossing
