"""Discrete-time population simulation: pairwise belief fusion plus evidential updating.

A well-stirred population of k agents tries to identify the best of n states.
Each time step has two phases. Phase 1 (when fusion is enabled): one pair of
distinct agents is drawn uniformly at random and fuses beliefs; by default
both members adopt the fused belief. Phase 2: every agent picks a state to
investigate by sampling from the betting distribution of its current belief,
and with probability rho (the evidence rate) receives a noisy quality
observation of that state and fuses the corresponding evidence distribution
into its belief.

Runs are deterministic functions of their parameters. Each run owns a
counter-based Philox stream seeded from SimParams.seed, and every step
consumes draws from that run's stream on a fixed schedule regardless of
outcomes:

    fusion on:  agent index i ~ integers(k), partner j ~ integers(k-1)
                shifted past i; with random-one adoption, one extra
                integers(2) picks the adopter
    always:     k state-selection uniforms, then k evidence-success
                uniforms, then k noise variates (drawn even where the
                success draw failed or sigma = 0)

so that changing rho or sigma alone never reorders the remaining stream.

_draw_events keeps that schedule, down to each generator's full state
after every step. Its draws, _draw_chunk, are one call per chunk of steps
into draw_events of _draws.c, a C file next to this one, loaded by
ctypes, whose two other entry points run the sparse rule's per-step
bookkeeping (below). Per step and run, on the run's own bitgen_t (taken from
bits.capsule, once per batch), it draws the pair and then fills 2k
uniforms, the state and then the success uniforms as two random(k) calls
draw them, and k normals with random_standard_uniform_fill and
random_standard_normal_fill of numpy's libnpyrandom.a, the functions that
Generator.random(out=) and standard_normal(out=) run. Each
integers(bound) draw is numpy's own algorithm replayed: Lemire's
multiply-shift (x * bound) >> 32 on the next 32-bit draw x of the bit
generator, taken through its next_uint32 (the low half of a fresh 64-bit
word, the next call its buffered high half), and redrawn while the
product's low 32 bits fall below 2**32 % bound. The half-word buffer, a
buffered half left for the next step, and every rejection are therefore
numpy's own; integers(1) (k = 2) draws nothing. Like _bounded, it takes
no bits.lock.

_load_draws builds the library with cc at import, against
numpy/random/bitgen.h alone, into the package's __pycache__ under a name
that holds numpy's version and hashes it, the source and the compile
command; it builds under a temporary name and renames the file into
place, so that processes that build at once leave one whole file, and
then removes that numpy version's libraries of other names, which the
build supersedes (another numpy version's stay, for environments that
share the checkout). It builds at import,
not at the first draw, because a child process's peak RSS starts at its
parent's RSS, and perfbench's peak_rss_mb adds the largest reaped child's
peak to its own. Measured on a 2-vCPU host in perfbench's order of calls,
the compiler spawned at import read 34.8 MB, below the 36.2 MB of the
uname child that perfbench spawns anyway, where the process had grown to
41 MB after one warm-up repeat of `trajectory`. Where cc is missing, the
cache cannot be written or the library does not build, load or hold all
three entry points, _DRAWS is None, nothing is spawned and nothing is
warned, and Python loops give the same bits: the draws per run and step
one random(2k) fill, one standard_normal(k) and the pair through
_bounded, the same algorithm on the bit generator's ctypes next_uint32;
and the sparse rule's levels and metric columns the loops of
_assign_levels and _window_metrics, whose steps the C loops replay write
for write.

Runs that share their shape (every SimParams field except rho, sigma,
seed and the value of theta within its Frank branch, see lockstep_key)
advance in lockstep: R of them are one (R, k, n) array, stepped together,
while each draws from its own stream on the schedule above. Every row
kernel does elementwise or rowwise arithmetic only, so a run's metrics are
bit-identical whichever batch it is in; run() is the batch of one.

Every pair fusion and every agent's evidence goes through one event pass,
_fuse_events, which fuses a group of events on disjoint agent rows, pairs
first: it gathers their rows; for the evidence events alone it computes
betting rows (the pignistic transform of a possibility distribution; in
the probabilistic model the belief itself), draws states, adds the noise
to the observed qualities, clamps them into [0, 1] and builds the evidence
rows; it fuses pairs and evidence in one _fuse_rows or _product_rows call,
counts each run's degenerate product fusions and writes each fused row to
the agents that adopt it. It returns nothing: its outputs are the beliefs
it writes and the counts it adds, and it takes each event's run from the
row that the event writes. An evidence event on a one-hot belief (one
entry whose bits are not +0.0) whose state uniform is above 0 gives its
row back bit for bit (_fuse_events states why), so a pass of at least
_SPARSE_ROWS evidence events leaves such events out and fuses only the
pairs and the rest. On the `large` benchmark (2 runs of 1000 agents x 20
states at rho = 0.5, 150 steps, seed 1) that leaves out 82.4% of the
possibilistic and 75.9% of the probabilistic evidence events, the share
of one-hot beliefs among the agents that take evidence. The kernels are
rowwise and every agent's uniform is still drawn, so each agent gets the
state, bit for bit, that a draw for every agent gives it.

One driver, _run_levels, steps every batch. It draws the steps by one
_draw_events call per chunk of as many steps as a level window may hold
events of, R * k agent steps and R pairs each, or of one step, and then
fuses the chunk by one of two rules. Which agents a step touches, the
fused pair and the agents whose success uniform falls below rho, is fixed
by the draws and not by the beliefs, so both rules give the same bits:

- dense, the step loop's: _sim_step fuses each step of the chunk in two
  passes, its pairs and then the agents that take evidence, which so
  read their beliefs after the pair fusion;
- sparse, for a batch whose expected evidence rows per step (the sum of
  rho * k over its runs) fall below _SPARSE_ROWS, by dependency level, as
  follows.

The sparse rule:

- each event, a pair fusion or one agent's evidence, gets a level one past
  the highest level of any agent it reads or writes, and gives that level to
  those agents. A step's pair comes before its evidence, so an adopter's
  evidence waits one level; events that share a level touch disjoint agents.
  A chunk's levels are assigned as it is drawn, by one _assign_levels
  call: assign_levels of _draws.c, one sequential pass over the chunk's
  events, writes them in the window's level type (8 or 16 bits at the
  paper's sizes, so that the stable sort by level stays a radix sort);
- a level window gathers the events of consecutive chunks, whose levels
  run on across them, until the run ends or the next chunk would take it
  past _WINDOW_EVENTS events; the agents' levels restart at 0 with each
  window;
- each level of a window is one event pass over all of its events, of many
  steps and runs. Every kernel is rowwise, so each event gets the bits that
  the dense rule gives it;
- each step's metrics are rebuilt from per-agent columns, advanced by the
  window's writes in step order, one chunk at a time. A write's columns
  are read from the beliefs after its level's pass: the level's events
  touch disjoint agents, and the first row an event writes holds the row
  it leaves, a left-out event's unchanged. Per chunk one _window_metrics
  call advances the columns, by advance_columns of _draws.c, another
  sequential pass over the chunk's writes, into a (w, m, R * k) array of
  its steps, which one _agent_means call reduces.

A dense batch's passes hold hundreds of rows each, so gathering them in
level windows gains little and costs memory: on `large`, dependency levels
raised the peak RSS by 8%, and the step loop's own passes as levels (step
t's pairs at level 2t + 1, its evidence at 2t + 2) by 4.0-5.6 MB, 5-7%,
and with windows of 4 steps or 1 its time by 5-12% or 30%.

An agent's metric columns (_metric_columns: its last degree, and in the
possibilistic model 1 - the largest of its others) and their mean over
each run's agents (_agent_means) are stated once, for _metrics_from_array
and the sparse rule alike. run_batch writes step 0's metrics, or with
final capture the last step's alone; with trajectory capture the dense
rule writes those of each step after it, by _metrics_from_array, and the
sparse rule rebuilds them as above.

At the paper's population (100 agents, 5 states, rho = 0.05) a step of one
or two runs fuses about a dozen rows, so per-call overhead, not arithmetic,
sets its cost. With the levels and metric columns in _draws.c, fig8's two
batches at the `trajectory` size took 33.0 ms of process time where the
Python loops took 47.1 ms, 22 against 31 us per step, and `trajectory`'s
scaled wall_s went 0.072 -> 0.050 s (medians of 10 alternating pairs on a
2-vCPU host). Fig8's
possibilistic batch, 2 runs of 750 steps, holds 8,999 events: one level
window takes them in 107 passes, where level windows of 40 steps would
take 180 and the dense rule 1,500. The constants, as measured
on a 2-vCPU host (time by level over time step by step, at 100 agents and
5 states, both models and both capture modes, medians of 15-21
alternations of 200 steps):

- _SPARSE_ROWS = 256 sits at or below the crossover: 2 runs at rho = 1
  (200 rows), where every agent takes evidence every step, take 0.84-1.01
  of the time step by step (two series), and 1 run of 250 agents
  0.83-1.00; 50 runs at rho = 0.05 (250 rows) 0.84-0.94; 60 runs (300
  rows) 0.88-0.98; 3 runs at rho = 1 (300 rows) 0.92-1.05; 100 runs
  (500 rows) 0.93-1.02.
- _WINDOW_EVENTS = 2**15 caps a level window's arrays, about 125 bytes
  per event, at about 4 MB, and a chunk of draws, 24 bytes per agent
  step, at 768 KiB, or at one step's where a step holds more: 162 steps
  at 2 runs of 100 agents, 6 at 50 runs. Level windows span chunks, so a
  chunk's size leaves the passes alone. Fig8's batch fits in one window
  (2**12 events take 119 passes, 2**13 113); 50 runs at rho = 0.05 hold
  about 300 events per step, and take 105, 83, 67 and 51 passes per 300
  steps with caps of 2**13, 2**14, 2**15 and 2**17 (599 with a level
  window per step). Against 2**15, time at 2**13 reads
  1.02-1.08 and at 2**17 0.92-1.02 (medians of 7).
- _SPARSE_ROWS also guards _fuse_events' one-hot test, which pays from a
  pass of a few hundred evidence events (time with the test over time
  without, medians of 9-15 in-process alternations): fig8's batches,
  whose passes hold at most about 200 evidence events, read 1.04 with
  guards of 0 and 64, 1.005 at 128 and 1.003 at 256; dense batches of 300
  and 500 evidence events per pass read 0.90-1.00 at 128, 0.90-0.99 at
  256 and 0.97-1.01 at 512.

A batch's metrics are one (R, steps + 1, m) array whose last axis holds the
METRICS[model] columns, in that order, and its degenerate product fusions
one (R,) count array; run() returns a batch of one's row of each.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import operator
import os
import shutil
import sys
import tempfile
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import (
    _clamp_observations,
    _default_qualities,
    _evidence_rows,
)
from .possibility import (
    FrankParameter,
    _FrankRows,
    _fuse_rows,
    _pignistic_rows,
)
from .probability import _draw_states_rows, _product_rows

__all__ = [
    "METRICS",
    "OPTIONS",
    "Option",
    "POSSIBILISTIC",
    "PROBABILISTIC",
    "SimParams",
    "check_fields",
    "lockstep_key",
    "run",
    "run_batch",
]

POSSIBILISTIC = "possibilistic"
PROBABILISTIC = "probabilistic"

ADOPT_BOTH = "both"
ADOPT_RANDOM_ONE = "random-one"

_TWO32 = 1 << 32
_LOW32 = _TWO32 - 1

# _run_levels fuses a batch by dependency level when its expected evidence
# rows per step, the sum of rho * k over its runs, fall below this, and
# _fuse_events leaves one-hot beliefs' own evidence out of passes of at
# least this many evidence events; and the events at which a level window
# ends, at a chunk's end, which also bound the agent steps and pairs that
# one chunk draws ahead. The module docstring gives their measurements
# and crossovers.
_SPARSE_ROWS = 256
_WINDOW_EVENTS = 1 << 15

# The metric columns of each model: the agent averages of Pi({s_n}) and
# N({s_n}), or of p(s_n).
METRICS = {
    POSSIBILISTIC: ("mean_poss_best", "mean_nec_best"),
    PROBABILISTIC: ("mean_prob_best",),
}


class Option:
    """One option of `possibly run` and `sweep`, keyed in OPTIONS by its
    flag, which is also its config key: the SimParams field it sets, its
    kind (int, float or str, or a dict from choice to value), its range
    low <= value <= high, which NaN is not in (no range if low is None),
    and the CLI's words for a value out of range."""

    __slots__ = ("field", "kind", "low", "high", "message")

    def __init__(self, field: str | None, kind: type | dict,
                 low: float | None = None, high: float | None = None,
                 message: str | None = None) -> None:
        self.field, self.kind = field, kind
        self.low, self.high, self.message = low, high, message

    def in_range(self, value) -> bool:
        return self.low is None or self.low <= value <= self.high


def check_fields(obj, fields) -> None:
    """Check obj's fields, (name, Option) pairs, against their options and
    store integers as Python ints (numpy ones included). A ValueError names
    the field; its message is the CLI's after the name, except "need at
    least ...", which reads the same alone."""
    for name, option in fields:
        value, kind = getattr(obj, name), option.kind
        if kind is int and value.__class__ is not int:
            try:
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            object.__setattr__(obj, name, value)
        elif kind.__class__ is dict:
            if value not in kind.values():
                raise ValueError(f"unknown {name.replace('_', ' ')}: {value!r}")
            continue
        try:
            if option.in_range(value):
                continue
        except TypeError:  # a str or None where a number belongs
            raise ValueError(f"{name} must be a number") from None
        message = option.message
        raise ValueError(message if message.startswith("need ")
                         else f"{name} {message}")


# Every option of `run` and `sweep`, in --help order. theta is checked
# where it is wrapped into a FrankParameter, after every range test.
OPTIONS = {
    "agents": Option("agents", int, 2, math.inf, "need at least 2 agents"),
    "states": Option("states", int, 2, math.inf, "need at least 2 states"),
    "evidence-rate": Option("rho", float, 0.0, 1.0, "must lie in [0, 1]"),
    "noise": Option("sigma", float, 0.0, sys.float_info.max,
                    "must be finite and >= 0"),
    "theta": Option("theta", float),
    "steps": Option("steps", int, 0, math.inf, "must be >= 0"),
    "runs": Option(None, int, 1, math.inf, "must be >= 1"),
    "seed": Option("seed", int, 0, 2 ** 64 - 1,
                   "must be a 64-bit unsigned integer"),
    "model": Option("model", {m: m for m in (POSSIBILISTIC, PROBABILISTIC)}),
    "fusion": Option("fusion_enabled", {"on": True, "off": False}),
    "fusion-adoption": Option("fusion_adoption",
                              {a: a for a in (ADOPT_BOTH, ADOPT_RANDOM_ONE)}),
    "workers": Option(None, int, 1, math.inf, "must be >= 1"),
    "out": Option(None, str),
}
_FIELD_OPTIONS = tuple((o.field, o) for o in OPTIONS.values() if o.field)


@dataclass(frozen=True)
class SimParams:
    """Everything that determines one run, including its random stream.
    OPTIONS states each field's type and range."""

    agents: int
    states: int
    rho: float
    sigma: float
    theta: FrankParameter
    steps: int
    model: str
    seed: int
    fusion_enabled: bool = True
    fusion_adoption: str = ADOPT_BOTH

    def __post_init__(self) -> None:
        check_fields(self, _FIELD_OPTIONS)
        if not isinstance(self.theta, FrankParameter):
            raise ValueError("theta must be a FrankParameter")


# ---------------------------------------------------------------------------
# population array helpers
# ---------------------------------------------------------------------------

def lockstep_key(params: SimParams) -> tuple:
    """What runs must share to advance in one batch: the tuple of every
    SimParams field but the per-run rho, sigma, seed and theta, and then
    theta's Frank branch (min, lukasiewicz, product, positive or
    negative), which selects the t-norm expression."""
    return (params.agents, params.states, params.steps, params.model,
            params.fusion_enabled, params.fusion_adoption, params.theta.branch)


def _initial_beliefs(params: SimParams, runs: int = 1) -> np.ndarray:
    """All agents of `runs` populations fully ignorant, as a (runs, k, n)
    array: vacuous possibility rows or uniform rows."""
    shape = (runs, params.agents, params.states)
    if params.model == POSSIBILISTIC:
        return np.ones(shape)
    return np.full(shape, 1.0 / params.states)


def _bounded(bits: np.random.BitGenerator, bound: int) -> int:
    """Generator.integers(bound), 1 <= bound <= 2**32, on bits' stream: the
    same value, and the same 32-bit draws consumed (see the module
    docstring). Unlike a Generator method it does not take bits.lock, so
    no other thread may draw from the stream meanwhile."""
    bound = operator.index(bound)  # exact integer products, whatever type
    if bound == 1:
        return 0
    next_uint32, state = bits.ctypes.next_uint32, bits.ctypes.state
    m = next_uint32(state) * bound
    while m & _LOW32 < _TWO32 % bound:
        m = next_uint32(state) * bound
    return m >> 32


def _load_draws(cache: str):
    """_draws.c's library, loaded by ctypes from the directory cache, where
    it is built first if it is missing, with its three entry points
    draw_events, assign_levels and advance_columns declared; None, for the
    Python loops, if it cannot be built or loaded or lacks one. The
    library's name holds numpy's version and a hash of it, the source and the
    compile command. It is built under a temporary name and renamed into
    place, so that builds at once leave one whole file, and then the
    libraries of that numpy version's other names are removed; nothing is
    spawned when cc is missing or cache cannot be written."""
    source = os.path.join(os.path.dirname(__file__), "_draws.c")
    library = os.path.join(os.path.dirname(np.__file__), "random", "lib",
                           "libnpyrandom.a")
    # -O1: the compiler's own peak RSS stays near 27 MB, where at -O2 it
    # reaches 30 MB; the fills it links are compiled already
    command = ["cc", "-O1", "-shared", "-fPIC", "-I", np.get_include(),
               source, library, "-lm"]
    try:
        with open(source, "rb") as fh:
            key = zlib.crc32(fh.read() + repr((np.__version__, command))
                             .encode())
    except OSError:
        return None
    version = f"_draws-{np.__version__}-"
    path = os.path.join(cache, f"{version}{key:08x}.so")
    if not os.path.exists(path):
        if shutil.which(command[0]) is None:
            return None
        import subprocess

        tmp = None
        try:
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache)
            os.fchmod(fd, 0o644)  # the linker adds x where r is set
            os.close(fd)
            subprocess.run(command + ["-o", tmp], check=True,
                           stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            os.replace(tmp, path)
        except (OSError, subprocess.CalledProcessError):
            return None
        finally:
            if tmp and os.path.exists(tmp):
                os.remove(tmp)
        for name in os.listdir(cache):  # superseded by this build
            if name.startswith(version) and os.path.join(cache, name) != path:
                with contextlib.suppress(OSError):
                    os.remove(os.path.join(cache, name))
    # arrays go as ndpointers, which check each one's dtype and that it is
    # contiguous; values may be a column range, and levels of any dtype
    n, i, array = ctypes.c_ssize_t, ctypes.c_int, np.ctypeslib.ndpointer
    rows, doubles = array(np.intp, flags="C"), array(np.float64, flags="C")
    values, levels = array(np.float64), array(flags="C")
    try:
        draws = ctypes.CDLL(path)
        for entry, argtypes in (
                (draws.draw_events, (ctypes.c_void_p, n, n, n, i, i, rows,
                                     doubles, doubles)),
                (draws.assign_levels, (i, *[levels] * 3, n, n, *[rows] * 3)),
                (draws.advance_columns, (n, n, n, n, rows, values, rows,
                                         values, rows, n, doubles, doubles))):
            entry.argtypes, entry.restype = argtypes, None
    except (OSError, AttributeError):
        return None
    return draws


# built at import, not at the first draw (see the module docstring)
_DRAWS = _load_draws(os.path.join(os.path.dirname(__file__), "__pycache__"))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _bitgens(rngs: Sequence[np.random.Generator]):
    """The bitgen_t pointers of rngs' bit generators, a ctypes array for
    _DRAWS, or None where the Python loop draws. They are valid only while
    rngs' generators live."""
    if _DRAWS is None:
        return None
    return (ctypes.c_void_p * len(rngs))(
        *[_capsule_pointer(rng.bit_generator.capsule, b"BitGenerator")
          for rng in rngs])


def _draw_chunk(rngs: Sequence[np.random.Generator], params: SimParams,
                w: int, bitgens=None) -> tuple[np.ndarray, ...]:
    """Every run's draws for w steps, step by step, each run on its
    stream's schedule (see the module docstring), by one _DRAWS call on
    bitgens, _bitgens(rngs) (built here if not given), or by the Python
    loop where _DRAWS is None: each step's pair per run as agents of its
    run, i and j and the two that adopt, (w, R, 4), or (w, 0, 4) without
    fusion; the state and success uniforms, (w, R, 2, k); and the normals,
    (w, R, k)."""
    k, r_count = params.agents, len(rngs)
    random_one = params.fusion_adoption == ADOPT_RANDOM_ONE
    u = np.empty((w, r_count, 2, k))  # state, then success uniforms
    eps = np.empty((w, r_count, k))
    if bitgens is None:
        bitgens = _bitgens(rngs)
    if bitgens is not None:
        pairs = np.empty((w, r_count if params.fusion_enabled else 0, 4),
                         dtype=np.intp)
        _DRAWS.draw_events(bitgens, r_count, w, k, params.fusion_enabled,
                           random_one, pairs, u, eps)
        return pairs, u, eps
    pairs = []
    for t in range(w):
        for rng, u_r, eps_r in zip(rngs, u[t], eps[t]):
            if params.fusion_enabled:
                bits = rng.bit_generator
                i = _bounded(bits, k)
                j = _bounded(bits, k - 1)
                j += j >= i
                pairs.extend((i, j) + ((i, j)[_bounded(bits, 2)],) * 2
                             if random_one else (i, j, i, j))
            rng.random(out=u_r)
            rng.standard_normal(out=eps_r)
    return np.array(pairs, dtype=np.intp).reshape(w, -1, 4), u, eps


def _draw_events(rngs: Sequence[np.random.Generator], params: SimParams,
                 rho: np.ndarray, sigma: np.ndarray, w: int,
                 bitgens=None) -> tuple[np.ndarray, ...]:
    """The events that _draw_chunk(rngs, params, w, bitgens)'s draws fix:
    each step's pair of distinct agents per run, uniform over ordered and
    hence unordered pairs (j is shifted past i), as a (w, R, 4) array of
    agent rows, i and j and the two that adopt the fused belief (i and j,
    or with random-one adoption the one drawn, twice), or (w, 0, 4)
    without fusion; and, in step order, each evidence event's flat agent
    step f, agent row f % (R * k) at step f // (R * k), whose success
    uniform falls below its run's rho, with its state uniform and its noise
    term."""
    pairs, u, eps = _draw_chunk(rngs, params, w, bitgens)
    k = params.agents
    pairs += (np.arange(pairs.shape[1]) * k)[:, None]
    f = (u[:, :, 1] < rho[:, None]).ravel().nonzero()[0]
    # agent step f = q * k + a is agent a of run q % R, and its state
    # uniform u's flat entry 2f - a = f + q * k. The noise terms and that
    # index are built in place, without event-sized temporaries
    q = f // k
    noise = sigma.take(q, mode="wrap")
    # a sigma near the float maximum may give a noise term of +-inf, which
    # the clamp takes to 0 or 1 as it takes any observation beyond them
    with np.errstate(over="ignore"):
        noise *= eps.reshape(-1)[f]
    q *= k
    q += f
    return pairs, f, u.reshape(-1)[q], noise


def _fuse_events(rows_b: np.ndarray, possibilistic: bool,
                 qualities: np.ndarray, theta: _FrankRows,
                 degenerate: np.ndarray, events: Sequence, pairs: int,
                 u_state: np.ndarray | None = None,
                 noise: np.ndarray | None = None) -> None:
    """The event pass: fuse one group of events on disjoint agent rows of
    rows_b, the (R * k, n) beliefs, in place. The first `pairs` events are
    pair fusions, the rest evidence. events holds four rows of agent rows:
    per event the one it reads, its partner's (read by a pair fusion
    alone), and the two it writes (a pair's adopters; an evidence event's
    own row). An evidence event's agent draws a state from its betting row
    with its uniform in u_state and observes that state's quality plus its
    term in noise, clamped into [0, 1]. Each run's degenerate product
    fusions are added to degenerate, one count per run: an event's run is
    the row it writes // k, where k = len(rows_b) // len(degenerate).

    An evidence event whose gathered row holds one entry with bits other
    than +0.0 (a one-hot belief), and whose state uniform is above 0,
    gives its row back bit for bit, so in a pass of at least _SPARSE_ROWS
    evidence events only the pairs and the other evidence events are
    transformed, drawn, observed, fused and written:

    - the lone entry is 1.0: _fuse_rows snaps each row's max to 1.0, and
      product renormalisation divides a lone entry by itself. A row holding
      -0.0 has nonzero bits there, so it is still fused;
    - the betting row is then the row, so for any u > 0 _draw_states_rows
      returns the hot state (u = 0 returns state 0);
    - the possibilistic evidence is 1.0 there, so every Frank entry sits on
      a boundary, min(x, y) = 0 or max(x, y) = 1: all five branches return
      the row, and the normalisation adds +0.0;
    - _product_rows returns e_s / e_s = 1.0 there and +0.0 elsewhere, with
      e_s >= 1/n, so no reset."""
    # take gathers 2 to 2,500 rows of 5 or 20 entries in 0.3-0.6 of the
    # time of indexing
    x, writes = rows_b.take(events[0], axis=0), events[2]
    if len(x) - pairs >= _SPARSE_ROWS:
        # each evidence row's entries whose bits are not +0.0, counted by a
        # product with ones, which at 1000 x 5 takes a sixth of the time of
        # np.count_nonzero along rows
        live = (x[pairs:].view(np.int64) != 0) @ np.ones(x.shape[1]) != 1.0
        live |= u_state == 0.0
        if not live.all():
            keep = np.concatenate((np.arange(pairs), pairs + live.nonzero()[0]))
            if not keep.size:
                return
            x, writes = x.take(keep, axis=0), writes[keep]
            u_state, noise = u_state[live], noise[live]
    y = rows_b.take(events[1][:pairs], axis=0) if pairs else None
    if pairs < len(x):
        ev = x[pairs:]
        si = _draw_states_rows(_pignistic_rows(ev) if possibilistic else ev,
                               u_state)
        ev = _evidence_rows(possibilistic, x.shape[1], si,
                            _clamp_observations(qualities[si] + noise))
        y = ev if y is None else np.concatenate((y, ev))
    run = writes // (len(rows_b) // len(degenerate))
    if possibilistic:
        fused = _fuse_rows(theta.take(run), x, y)
    else:
        fused, bad = _product_rows(x, y)
        if bad.any():
            degenerate += np.bincount(run[bad], minlength=degenerate.size)
    rows_b[writes] = fused
    if pairs:
        rows_b[events[3][:pairs]] = fused[:pairs]


def _sim_step(rows_b: np.ndarray, pairs: np.ndarray, rows: np.ndarray,
              u_state: np.ndarray, noise: np.ndarray, params: SimParams,
              qualities: np.ndarray, theta: _FrankRows,
              degenerate: np.ndarray) -> None:
    """Fuse one drawn step into rows_b, the (R * k, n) beliefs, in place:
    one event pass for its pairs, an (R, 4) array of agent rows as
    _draw_events gives a step's (or (0, 4) without fusion), then one for
    its evidence events, agent rows with their state uniforms and noise
    terms, which so read their beliefs after the pair fusion. params gives
    the shared shape, theta is an (R, 1) column or a scalar, and each
    run's degenerate product fusions are added to degenerate."""
    possibilistic = params.model == POSSIBILISTIC
    if len(pairs):
        _fuse_events(rows_b, possibilistic, qualities, theta, degenerate,
                     pairs.T, len(pairs))
    if rows.size:
        _fuse_events(rows_b, possibilistic, qualities, theta, degenerate,
                     (rows,) * 4, 0, u_state, noise)


def _metric_columns(rows: np.ndarray, model: str) -> np.ndarray:
    """The METRICS[model] columns of each belief row of rows, (..., n),
    before the agent mean, as an (m, ...) array: the row's last degree
    (in the probabilistic model a view of rows), then in the possibilistic
    model 1 - the largest of its others."""
    if model == PROBABILISTIC:
        return rows[None, ..., -1]
    columns = np.empty((2,) + rows.shape[:-1])
    columns[0] = rows[..., -1]
    # max is exact, so a running max over the columns equals max(axis=-1)
    top = columns[1]
    top[...] = rows[..., 0]
    for s in range(1, rows.shape[-1] - 1):
        np.maximum(top, rows[..., s], out=top)
    np.subtract(1.0, top, out=top)
    return columns


def _agent_means(columns: np.ndarray) -> np.ndarray:
    """The agent means of metric columns, (..., m, R, k), as an (..., R, m)
    view: per run and column a sum over its agents, then one division, as
    ndarray.mean takes them."""
    sums = np.add.reduce(columns, axis=-1)
    sums /= columns.shape[-1]
    return sums.swapaxes(-1, -2)


def _metrics_from_array(b: np.ndarray, model: str) -> np.ndarray:
    """The METRICS[model] columns of each population of a (R, k, n) array,
    as an (R, m) array."""
    return _agent_means(_metric_columns(b, model))


def _sparse(runs: Sequence[SimParams]) -> bool:
    """Whether _run_levels fuses the batch runs by dependency level rather
    than step by step: whether their expected evidence rows per step, the
    sum of rho * k, fall below _SPARSE_ROWS."""
    return sum(p.rho for p in runs) * runs[0].agents < _SPARSE_ROWS


def _run_levels(b: np.ndarray, params: SimParams, qualities: np.ndarray,
                rho: np.ndarray, sigma: np.ndarray, theta: _FrankRows,
                rngs: Sequence[np.random.Generator],
                metrics: np.ndarray, sparse: bool) -> np.ndarray:
    """Run the batch b to params.steps, writing the metrics of steps 1 to
    params.steps into metrics, an (R, steps, m) view, unless it holds no
    steps: chunk by chunk of draws, each chunk's steps fused one at a time
    (_sim_step) or, if sparse, by dependency level in level windows (see
    the module docstring); both rules give the same bits. Returns each
    run's degenerate fusion count."""
    rows_b = b.reshape(-1, b.shape[2])
    r_count, rk = len(b), len(rows_b)
    possibilistic = params.model == POSSIBILISTIC
    trajectory = metrics.shape[1] > 0
    degenerate = np.zeros(r_count, dtype=np.int64)
    # the pointers once per batch; rngs keeps their generators alive
    bitgens = _bitgens(rngs)
    if sparse and trajectory:  # a copy: _window_metrics advances it in place
        columns = _metric_columns(rows_b, params.model).copy()
    r_pairs = r_count if params.fusion_enabled else 0
    # a chunk draws as many steps as a level window may hold events of, or
    # one; a window so holds at most _WINDOW_EVENTS events, or one step's.
    # An event's level is at most one past the window's events before it,
    # and a step raises the highest level by at most 2
    span = max(1, min(params.steps, _WINDOW_EVENTS // (rk + r_pairs)))
    most = max(_WINDOW_EVENTS, rk + r_pairs)
    level_type = np.min_scalar_type(min(most, 2 * params.steps))
    agent_level = np.zeros(rk, dtype=level_type)
    # the level window's chunks: per chunk its first step, its steps, the
    # range of its pairs and the evidence index at which each step begins;
    # and per chunk its pieces of the window's events: the pairs' rows i
    # and j and two adopters, their levels, and per evidence event its
    # agent row, level, state uniform and noise term
    chunks = []
    pieces = ([], [], [], [], [], [])
    p_held = e_held = 0

    def fuse_window():
        pairs, p_level, e_row, e_level, e_u, e_noise = map(np.concatenate,
                                                           pieces)
        for piece in pieces:
            piece.clear()
        # the events (pairs, then evidence) sorted by level, stably so that
        # each level's pairs come first (numpy sorts 8- and 16-bit integers
        # by radix); per event its four rows for _fuse_events (an evidence
        # event's own row four times), and per evidence event its state
        # uniform and noise term
        levels = np.concatenate((p_level, e_level))
        by_level = levels.argsort(kind="stable")
        ends = np.cumsum(np.bincount(levels, minlength=1)).tolist()
        level_pairs = np.bincount(p_level, minlength=len(ends)).tolist()
        events = np.empty((4, levels.size), dtype=np.intp)
        events[:, :p_held] = pairs.T
        events[:, p_held:] = e_row
        events = events.take(by_level, axis=1)
        pad = np.zeros(p_held)
        u_state = np.concatenate((pad, e_u))[by_level]
        noise = np.concatenate((pad, e_noise))[by_level]
        if trajectory:
            values = np.empty((len(columns), levels.size))
        for lv in range(1, len(ends)):
            start, stop = ends[lv - 1], ends[lv]
            cut = start + level_pairs[lv]  # the level's first evidence event
            _fuse_events(rows_b, possibilistic, qualities, theta, degenerate,
                         events[:, start:stop], level_pairs[lv],
                         u_state[cut:stop], noise[cut:stop])
            if trajectory:
                # the level's agents are disjoint, and the first row each
                # event writes holds the row it leaves
                values[:, by_level[start:stop]] = _metric_columns(
                    rows_b.take(events[2, start:stop], axis=0), params.model)
        if trajectory:  # each chunk's metrics, in step order
            for t0, w, p0, p1, e_ends in chunks:
                _window_metrics(metrics[:, t0:t0 + w], columns, pairs[p0:p1],
                                values[:, p0:p1], e_row, values[:, p_held:],
                                e_ends)

    for t0 in range(0, params.steps, span):
        w = min(span, params.steps - t0)

        # evidence event f is agent row f % rk at step f // rk
        pairs, f, e_u, e_noise = _draw_events(rngs, params, rho, sigma, w,
                                              bitgens)
        e_row = f % rk
        e_ends = np.searchsorted(f, np.arange(w + 1) * rk)
        if not sparse:
            for t in range(w):
                step = slice(e_ends[t], e_ends[t + 1])
                _sim_step(rows_b, pairs[t], e_row[step], e_u[step],
                          e_noise[step], params, qualities, theta, degenerate)
                if trajectory:
                    metrics[:, t0 + t] = _metrics_from_array(b, params.model)
            continue
        if chunks and p_held + e_held + w * r_pairs + f.size \
                > _WINDOW_EVENTS:
            fuse_window()
            chunks, p_held, e_held = [], 0, 0
            agent_level[:] = 0

        pair_level = np.empty((w, r_pairs), dtype=level_type)
        e_level = np.empty(f.size, dtype=level_type)
        _assign_levels(agent_level, pairs, e_row, e_ends, pair_level, e_level)

        for piece, value in zip(pieces, (pairs.reshape(-1, 4),
                                         pair_level.ravel(), e_row, e_level,
                                         e_u, e_noise)):
            piece.append(value)
        p0, p_held = p_held, p_held + w * r_pairs
        chunks.append((t0, w, p0, p_held, e_held + e_ends))
        e_held += f.size
    if chunks:
        fuse_window()
    return degenerate


def _assign_levels(agent_level: np.ndarray, pairs: np.ndarray,
                   e_row: np.ndarray, e_ends: np.ndarray,
                   pair_level: np.ndarray, e_level: np.ndarray) -> None:
    """A chunk's dependency levels, written into pair_level, (w, R), and
    e_level: each event's level is one past the highest level in
    agent_level of the agents it reads or writes, which it then gives them.
    The chunk is _draw_events' pairs, (w, R, 4), and evidence rows e_row,
    step t's at e_ends[t]:e_ends[t + 1]; the pairs of a step come before
    its evidence, and runs share no agents. The three level arrays share
    one unsigned dtype. By one _DRAWS call, or by the Python loop where
    _DRAWS is None."""
    if _DRAWS is not None:
        _DRAWS.assign_levels(agent_level.itemsize, agent_level, pair_level,
                             e_level, *pair_level.shape, pairs, e_row, e_ends)
        return
    for t in range(len(pair_level)):
        i, j, level = pairs[t, :, 0], pairs[t, :, 1], pair_level[t]
        np.maximum(agent_level[i], agent_level[j], out=level)
        level += 1
        agent_level[i] = agent_level[j] = level
        rows = e_row[e_ends[t]:e_ends[t + 1]]
        level = e_level[e_ends[t]:e_ends[t + 1]]
        np.add(agent_level[rows], 1, out=level)
        agent_level[rows] = level


def _window_metrics(out: np.ndarray, columns: np.ndarray, pairs: np.ndarray,
                    pair_values: np.ndarray, e_row: np.ndarray,
                    e_values: np.ndarray, e_ends: np.ndarray) -> None:
    """A chunk's per-step metrics, written into out, an (R, w, m) view.
    columns holds the agents' metric columns before the chunk, (m, R * k).
    pairs, (w * R, 4), holds each step's pairs, whose last two entries are
    its adopters, and pair_values, (m, w * R), their metric columns; step t's
    evidence events are e_row's agent rows and e_values' (m, events)
    columns at e_ends[t]:e_ends[t + 1]. pair_values and e_values are column
    ranges of one array. The columns are advanced step by step in place, by
    one _DRAWS call or by the Python loop where _DRAWS is None, and the
    chunk's steps are reduced by one _agent_means call."""
    r_count, w, m = out.shape
    steps = np.empty((w,) + columns.shape)
    if _DRAWS is not None:
        _DRAWS.advance_columns(w, len(pairs) // w, m, columns.shape[1], pairs,
                               pair_values, e_row, e_values, e_ends,
                               e_values.strides[0] // 8, columns, steps)
    else:
        adopters = pairs[:, 2:].reshape(w, -1, 2)
        pair_values = pair_values.reshape(m, w, -1, 1)
        for t in range(w):
            # the pair first: an adopter's evidence in the same step follows
            columns[:, adopters[t]] = pair_values[:, t]
            step = slice(e_ends[t], e_ends[t + 1])
            columns[:, e_row[step]] = e_values[:, step]
            steps[t] = columns
    out[:] = _agent_means(steps.reshape(w, m, r_count, -1)).swapaxes(0, 1)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def run(params: SimParams) -> tuple[np.ndarray, int]:
    """The batch of one: run_batch([params])'s metrics row, a
    (steps + 1, m) array, and its degenerate fusion count."""
    metrics, degenerate = run_batch([params])
    return metrics[0], int(degenerate[0])


def run_batch(runs: Sequence[SimParams],
              final_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Execute same-shape runs in lockstep, in the default environment.

    Returns the metrics, an (R, steps + 1, m) array in METRICS[model] column
    order, and each run's degenerate fusion count, an (R,) array. Row i
    equals run(runs[i]) exactly. With final_only the metrics are (R, 1, m),
    the last step's alone, and no earlier step's are computed. One driver,
    _run_levels, steps the batch chunk by chunk of draws; a batch whose
    expected evidence rows per step, the sum of rho * k over its runs, fall
    below _SPARSE_ROWS is fused by dependency level, a denser one step by
    step (see the module docstring); both rules give the same bits.
    """
    # Freeing one untouched block of about 4 MiB lifts glibc's dynamic mmap
    # and trim thresholds above a step's temporaries (mallopt(3)), so the
    # heap top is not given back and refaulted every step; it is never
    # resident, and other allocators ignore it. It is 8 bytes short of
    # 4 MiB, below which numpy does not madvise an array for huge pages:
    # once the block came from the heap, that advice let the kernel back
    # the heap with 2 MiB pages, which added 2 MB to a process's peak RSS,
    # or not, by chance.
    np.empty((1 << 19) - 1)
    runs = tuple(runs)
    if not runs:
        raise ValueError("need at least one run")
    shape = runs[0]
    key = lockstep_key(shape)
    if any(lockstep_key(p) != key for p in runs[1:]):
        raise ValueError("runs of one batch may differ only in rho, sigma, "
                         "seed and theta within its Frank branch")
    rngs = [np.random.Generator(np.random.Philox(np.random.SeedSequence(p.seed)))
            for p in runs]
    rho = np.array([p.rho for p in runs])
    sigma = np.array([p.sigma for p in runs])
    theta = _FrankRows.of([p.theta for p in runs])
    # the arrays first: one too large to allocate fails at once
    b = _initial_beliefs(shape, len(runs))
    metrics = np.empty((len(runs), 1 if final_only else shape.steps + 1,
                        len(METRICS[shape.model])))
    qualities = _default_qualities(shape.states)
    if not final_only:
        metrics[:, 0] = _metrics_from_array(b, shape.model)
    degenerate = _run_levels(b, shape, qualities, rho, sigma, theta, rngs,
                             metrics[:, 1:], _sparse(runs))
    if final_only:
        metrics[:, 0] = _metrics_from_array(b, shape.model)
    return metrics, degenerate
