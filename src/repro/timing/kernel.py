"""Compiled levelized NumPy kernel for dynamic timing simulation.

The reference kernel in :mod:`repro.timing.dynamic` walks the netlist
gate-by-gate in Python, with string-keyed dicts and a per-pin closure.  Its
per-gate decision, however, depends only on the *logic* values of the
pattern — which are sample-independent — so the whole simulation factors
into three stages with very different change rates:

1. **Circuit compilation** (once per circuit, :func:`compile_circuit`):
   lower the :class:`~repro.circuits.netlist.Circuit` into flat integer
   arrays — per-gate fanin blocks resolved to edge indices and source net
   rows, controlling values, topological levels.  Net names disappear; a
   net is a row index into one ``(n_nets, width)`` settle-time matrix.
2. **Pattern scheduling** (once per two-vector test, cached per circuit):
   evaluate the logic, classify every transitioning gate as controlled-min
   or transitioning-max exactly like ``_gate_settle_time``, and emit per
   topological level two edge groups (one per reduction kind) laid out for
   ``np.minimum.reduceat`` / ``np.maximum.reduceat``.
3. **Evaluation** (per call): gather ``delay[edge]`` for the whole
   schedule in one fancy index, then level by level gather
   ``stable[source]`` rows for all Monte-Carlo samples at once and
   segment-reduce ``stable[source] + delay`` into the settle-time matrix.
   Nothing in this stage is per-gate Python.

Cone-restricted replay (:func:`resimulate_with_extra_compiled`) filters a
pattern schedule down to the suspect's fanout cone and evaluates it into a
small ``(n_recomputed, width)`` overlay on top of the base matrix — the
fault-dictionary builder's innermost loop re-simulates one suspect against
one pattern, so the replayed slice is tiny compared to the circuit.  Cone
restrictions are cached per schedule, keyed by the identity of the
(read-only, memoized) cone list the dictionary builder passes, so the
steady-state replay does no set building and no per-edge scans at all.
The fused chunk replay (:func:`replay_chunk_compiled`) serves the
dictionary builder: it prunes every (suspect, pattern) replay of a
signature chunk to the slab of its cone that can reach a read-out net,
skips suspects whose edge is not a candidate pin of the pattern's
schedule, and runs all remaining slabs level-synchronously in one pass.

Bit-identity with the reference kernel is a hard contract
(``tests/test_kernel.py``): min/max reductions are exact selections, and
every floating-point addition here pairs the same operands in the same
order as the reference closures (``stable[fanin] + (delay + extra)``), so
the two kernels agree to the last bit, not just to a tolerance.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.library import CONTROLLING_VALUE, GateType
from ..circuits.netlist import Circuit
from .. import obs
from .dynamic import (
    ExtraDelay,
    ReplayRequest,
    TransitionSimResult,
    edge_offsets,
)
from .instance import CircuitTiming

__all__ = [
    "CompiledCircuit",
    "PatternSchedule",
    "StableTimes",
    "ConeStableTimes",
    "compile_circuit",
    "simulate_transition_compiled",
    "resimulate_with_extra_compiled",
    "replay_chunk_compiled",
]

#: Cap on cached pattern schedules per circuit (LRU).
_SCHEDULE_CACHE_CAP = 512

#: Cap on cached cone restrictions per pattern schedule (LRU).
_CONE_CACHE_CAP = 1024


class StableTimes(Mapping):
    """Mapping view of the ``(n_nets, width)`` settle-time matrix.

    Preserves the ``result.stable[net]`` API of the reference kernel:
    indexing returns the net's row (a view — treat it as read-only).
    """

    __slots__ = ("matrix", "net_rows")

    def __init__(self, matrix: np.ndarray, net_rows: Dict[str, int]) -> None:
        self.matrix = matrix
        self.net_rows = net_rows

    def __getitem__(self, net: str) -> np.ndarray:
        return self.matrix[self.net_rows[net]]

    def take_rows(self, nets: Iterable[str]) -> np.ndarray:
        """Rows for ``nets`` stacked into one ``(len(nets), width)`` array."""
        rows = self.net_rows
        return self.matrix[[rows[net] for net in nets]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.net_rows)

    def __len__(self) -> int:
        return len(self.net_rows)


class ConeStableTimes(Mapping):
    """Settle times after a cone-restricted replay.

    Recomputed nets live in a small overlay matrix; every other net falls
    through to the base simulation's matrix, so a re-simulation never
    copies the full circuit's settle times.
    """

    __slots__ = ("base", "overlay", "overlay_rows")

    def __init__(
        self,
        base: StableTimes,
        overlay: np.ndarray,
        overlay_rows: Dict[str, int],
    ) -> None:
        self.base = base
        self.overlay = overlay
        self.overlay_rows = overlay_rows

    def __getitem__(self, net: str) -> np.ndarray:
        row = self.overlay_rows.get(net)
        if row is not None:
            return self.overlay[row]
        return self.base[net]

    def take_rows(self, nets: Iterable[str]) -> np.ndarray:
        """Rows for ``nets`` stacked into one ``(len(nets), width)`` array."""
        rows = self.overlay_rows
        index = [rows.get(net) for net in nets]
        if None not in index:
            return self.overlay[index]
        return np.stack([self[net] for net in nets])

    def __iter__(self) -> Iterator[str]:
        return iter(self.base)

    def __len__(self) -> int:
        return len(self.base)


class _GroupPlan:
    """One fused reduction batch: every transitioning gate of one level.

    ``edges[starts[g] : starts[g+1]]`` (sentinel: end of array) are gate
    ``out_rows[g]``'s candidate edges in pin order; ``sources`` holds the
    matching driver net rows.  Every group has >= 1 edge, so ``starts`` is
    strictly increasing — exactly what ``ufunc.reduceat`` needs.
    ``lo:hi`` is this plan's slice of the schedule-wide concatenated edge
    array (one delay gather per call instead of one per plan).

    Controlled-min and transitioning-max gates share one
    ``np.maximum.reduceat`` call: the first ``neg_groups`` groups (their
    candidates are rows ``[0, neg_rows)``) are min reductions evaluated as
    ``-max(-x)``.  Negation is an exact sign-bit flip and NumPy's
    ``minimum``/``maximum`` resolve both ties and NaNs the same way (the
    second operand on ties, the first NaN otherwise), so the fused form
    selects bit-identical results while halving the number of reductions
    per level.
    """

    __slots__ = ("edges", "starts", "sources", "out_rows", "lo", "hi",
                 "neg_rows", "neg_groups")

    def __init__(self, edges, starts, sources, out_rows, lo, neg_rows,
                 neg_groups):
        self.edges = edges
        self.starts = starts
        self.sources = sources
        self.out_rows = out_rows
        self.lo = lo
        self.hi = lo + len(edges)
        self.neg_rows = neg_rows
        self.neg_groups = neg_groups

    def __getstate__(self):
        return (self.edges, self.starts, self.sources, self.out_rows,
                self.lo, self.neg_rows, self.neg_groups)

    def __setstate__(self, state):
        self.__init__(*state)


class _Slab:
    """One suspect's propagation slab inside a cone schedule.

    The slab is the set of cone groups (overlay rows) the suspect edge can
    change — forward-reachable from the edge's own group through
    recomputed drivers — that can also reach one of the read-out nets.
    Every other cone group recomputes to its base row bit for bit, so a
    fused replay evaluates only the slab and reads the rest from the
    base matrix.

    Per slab group (cone order): ``step`` is its ordinal among the slab's
    distinct level steps, ``is_min`` marks a min group and ``lens`` its
    candidate-edge count.  Per slab edge row (group order, pin order):
    ``edges`` / ``sources`` are the edge index and driver net row, and
    ``inside`` the slab-local group that recomputes the driver (-1: read
    the base row).  ``suspect`` is the suspect edge's row.  Per read-out
    net: ``read_local`` is its slab-local group (-1: base row
    ``read_rows``).  An empty slab (``n_groups == 0``) reads every net
    from the base.
    """

    __slots__ = ("step", "is_min", "lens", "edges", "sources", "inside",
                 "suspect", "read_local", "read_rows", "n_groups", "n_edges")

    def __init__(self, read_local, read_rows, step=None, is_min=None, lens=None,
                 edges=None, sources=None, inside=None, suspect=-1):
        empty = np.empty(0, dtype=np.int64)
        self.step = empty if step is None else step
        self.is_min = np.empty(0, dtype=bool) if is_min is None else is_min
        self.lens = empty if lens is None else lens
        self.edges = empty if edges is None else edges
        self.sources = empty if sources is None else sources
        self.inside = empty if inside is None else inside
        self.suspect = suspect
        self.read_local = read_local
        self.read_rows = read_rows
        self.n_groups = len(self.step)
        self.n_edges = len(self.edges)


class _ConeSchedule:
    """A pattern schedule filtered to one fanout cone.

    ``steps`` holds per-level tuples
    ``(lo, hi, starts, inside_pos, inside_src, out_lo, out_hi, neg_rows,
    neg_groups)``: ``lo:hi`` slices the cone-wide ``edges``/``sources``
    concatenation, ``inside_pos`` marks candidate rows whose driver was
    itself recomputed (at a lower level) and must be re-summed from the
    overlay rows in ``inside_src``, ``out_lo:out_hi`` is the (contiguous,
    in replay order) overlay destination, and the leading ``neg_rows``
    rows / ``neg_groups`` groups are the fused min reductions (see
    :class:`_GroupPlan`).

    The fused chunk replay (:func:`replay_chunk_compiled`) also keeps the
    same steps as flat per-group / per-edge arrays and the per-(suspect
    row, read-out nets) :class:`_Slab` plans here, so both live and die
    with the schedule's cone LRU.
    """

    __slots__ = ("edges", "sources", "steps", "n_overlay", "overlay_rows",
                 "_edge_pos", "_flat", "_slabs")

    def __init__(self, edges, sources, steps, n_overlay, overlay_rows):
        self.edges = edges
        self.sources = sources
        self.steps = steps
        self.n_overlay = n_overlay
        #: net name -> overlay row, for the recomputed transitioning gates.
        self.overlay_rows = overlay_rows
        self._edge_pos: Optional[Dict[int, int]] = None
        self._flat: Optional[Tuple[np.ndarray, ...]] = None
        self._slabs: Dict[Tuple[int, Tuple[str, ...]], _Slab] = {}

    @property
    def edge_pos(self) -> Dict[int, int]:
        """Edge index -> row in ``edges`` (built on first use; an edge is
        one (sink, pin) pair so it appears at most once per cone)."""
        pos = self._edge_pos
        if pos is None:
            pos = self._edge_pos = {
                int(edge): index for index, edge in enumerate(self.edges)
            }
        return pos

    def flat(self) -> Tuple[np.ndarray, ...]:
        """``steps`` as flat arrays (built on first use):
        ``(group_step, group_neg, group_start, group_len, edge_group,
        edge_inside, inside_rows, inside_bounds)``.

        Per group: its step index, fused-min flag and edge segment.  Per
        edge row: its group and the overlay row of its recomputed driver
        (-1 when the driver is a base row).  ``inside_rows`` lists the
        rows with a recomputed driver; step ``k``'s share of it is
        ``inside_rows[inside_bounds[k] : inside_bounds[k + 1]]``.
        """
        flat = self._flat
        if flat is None:
            n_groups = self.n_overlay
            n_edges = len(self.edges)
            group_step = np.empty(n_groups, dtype=np.int64)
            group_neg = np.zeros(n_groups, dtype=bool)
            group_start = np.empty(n_groups, dtype=np.int64)
            group_len = np.empty(n_groups, dtype=np.int64)
            edge_group = np.empty(n_edges, dtype=np.int64)
            edge_inside = np.full(n_edges, -1, dtype=np.int64)
            inside_bounds = np.zeros(len(self.steps) + 1, dtype=np.int64)
            for k, (lo, hi, starts, inside_pos, inside_src, out_lo, out_hi,
                    _neg_rows, neg_groups) in enumerate(self.steps):
                group_step[out_lo:out_hi] = k
                group_neg[out_lo : out_lo + neg_groups] = True
                seg_start = lo + starts
                seg_len = np.diff(np.append(seg_start, hi))
                group_start[out_lo:out_hi] = seg_start
                group_len[out_lo:out_hi] = seg_len
                edge_group[lo:hi] = np.repeat(
                    np.arange(out_lo, out_hi, dtype=np.int64), seg_len
                )
                count = 0
                if inside_pos is not None:
                    edge_inside[inside_pos] = inside_src
                    count = len(inside_pos)
                inside_bounds[k + 1] = inside_bounds[k] + count
            inside_rows = np.flatnonzero(edge_inside >= 0)
            flat = self._flat = (group_step, group_neg, group_start, group_len,
                                 edge_group, edge_inside, inside_rows,
                                 inside_bounds)
        return flat

    def slab(self, pos: int, nets: Tuple[str, ...],
             net_rows: Dict[str, int]) -> _Slab:
        """The (cached) :class:`_Slab` of the suspect at edge row ``pos``
        (-1: not a candidate pin) read out at ``nets``."""
        key = (pos, nets)
        slab = self._slabs.get(key)
        if slab is None:
            # Threads racing here build equal slabs; either one may stay.
            slab = self._slabs[key] = self._build_slab(pos, nets, net_rows)
        return slab

    def _build_slab(self, pos, nets, net_rows) -> _Slab:
        read_rows = np.array([net_rows[net] for net in nets], dtype=np.int64)
        overlay_rows = self.overlay_rows
        read_cone = np.array(
            [overlay_rows.get(net, -1) for net in nets], dtype=np.int64
        )
        no_slab = np.full(len(nets), -1, dtype=np.int64)
        if pos < 0:
            return _Slab(no_slab, read_rows)
        (group_step, group_neg, group_start, group_len, edge_group,
         edge_inside, inside_rows, inside_bounds) = self.flat()
        n_groups = self.n_overlay
        # Forward: groups whose value the suspect's delay can change.
        # Drivers sit at strictly lower steps, so one ascending pass over
        # the steps settles every group before any reader consults it.
        forward = np.zeros(n_groups, dtype=bool)
        forward[edge_group[pos]] = True
        n_steps = len(self.steps)
        for k in range(int(group_step[edge_group[pos]]) + 1, n_steps):
            rows = inside_rows[inside_bounds[k] : inside_bounds[k + 1]]
            hit = rows[forward[edge_inside[rows]]]
            forward[edge_group[hit]] = True
        # Backward: groups some read-out net depends on.
        need = np.zeros(n_groups, dtype=bool)
        need[read_cone[read_cone >= 0]] = True
        for k in range(n_steps - 1, 0, -1):
            rows = inside_rows[inside_bounds[k] : inside_bounds[k + 1]]
            hit = rows[need[edge_group[rows]]]
            need[edge_inside[hit]] = True
        groups = np.flatnonzero(forward & need)
        if not groups.size:
            return _Slab(no_slab, read_rows)
        local = np.full(n_groups, -1, dtype=np.int64)
        local[groups] = np.arange(len(groups), dtype=np.int64)
        cone_step = group_step[groups]
        step = np.zeros(len(groups), dtype=np.int64)
        np.cumsum(cone_step[1:] != cone_step[:-1], out=step[1:])
        lens = group_len[groups]
        take = np.repeat(group_start[groups] - _exclusive_cumsum(lens), lens)
        take += np.arange(len(take), dtype=np.int64)
        inside = edge_inside[take]
        return _Slab(
            np.where(read_cone >= 0, local[read_cone], -1),
            read_rows,
            step=step,
            is_min=group_neg[groups],
            lens=lens,
            edges=self.edges[take],
            sources=self.sources[take],
            inside=np.where(inside >= 0, local[inside], -1),
            suspect=int(np.flatnonzero(take == pos)[0]),
        )


class PatternSchedule:
    """The per-(v1, v2) reduction schedule over a compiled circuit.

    Holds the settled logic values and, per topological level, up to two
    :class:`_GroupPlan` batches (controlled-min, transitioning-max) in
    evaluation order, plus the concatenation of every plan's edges for
    one-shot delay gathering.  Sample-independent: one schedule serves
    every Monte-Carlo width, every ``extra_delay`` and every cone replay
    of the same pattern.
    """

    __slots__ = ("compiled", "val1", "val2", "transitions",
                 "n_net_transitions", "plans", "all_edges", "all_sources",
                 "group_out", "group_plan", "group_start", "group_len",
                 "group_neg", "_edge_pos", "_cone_cache")

    def __init__(self, compiled, val1, val2, transitions, plans):
        self.compiled = compiled
        self.val1 = val1
        self.val2 = val2
        #: bool per net row (= topological order): did the net toggle?
        #: Consumers (the dictionary builder's activity planner) read this
        #: instead of re-deriving it from the value dicts.
        self.transitions = transitions
        self.n_net_transitions = int(transitions.sum())
        self.plans = plans
        empty = np.empty(0, dtype=np.int64)
        if plans:
            self.all_edges = np.concatenate([p.edges for p in plans])
            self.all_sources = np.concatenate([p.sources for p in plans])
            # Flat group table across all plans, for one-pass cone
            # restriction: group g is gate ``group_out[g]``, its candidate
            # edges sit at ``group_start[g] : +group_len[g]`` in
            # ``all_edges``, it belongs to ``plans[group_plan[g]]`` and is
            # a fused-min group iff ``group_neg[g]``.
            self.group_out = np.concatenate([p.out_rows for p in plans])
            self.group_plan = np.concatenate([
                np.full(len(p.out_rows), i, dtype=np.int64)
                for i, p in enumerate(plans)
            ])
            self.group_neg = np.concatenate([
                np.arange(len(p.out_rows), dtype=np.int64) < p.neg_groups
                for p in plans
            ])
            starts = []
            lens = []
            for p in plans:
                ends = np.empty(len(p.out_rows), dtype=np.int64)
                ends[:-1] = p.starts[1:]
                ends[-1] = len(p.edges)
                starts.append(p.lo + p.starts)
                lens.append(ends - p.starts)
            self.group_start = np.concatenate(starts)
            self.group_len = np.concatenate(lens)
        else:
            self.all_edges = empty
            self.all_sources = empty
            self.group_out = empty
            self.group_plan = empty
            self.group_start = empty
            self.group_len = empty
            self.group_neg = np.empty(0, dtype=bool)
        self._edge_pos: Optional[Dict[int, int]] = None
        self._cone_cache: "OrderedDict" = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def edge_pos(self) -> Dict[int, int]:
        """Edge index -> position in ``all_edges`` (built on first use)."""
        pos = self._edge_pos
        if pos is None:
            pos = self._edge_pos = {
                int(edge): index for index, edge in enumerate(self.all_edges)
            }
        return pos

    def cone_for(self, affected: Iterable[str]) -> _ConeSchedule:
        """The schedule slice recomputing (at most) ``affected``, cached.

        Keyed by the identity of ``affected`` when it is reused verbatim
        across calls — the dictionary builder passes the memoized
        ``Circuit.fanout_cone`` list for every (suspect, pattern) pair, so
        the steady state is one dict probe.  The cache holds a strong
        reference to the keyed object (no id recycling); callers must
        treat ``affected`` as immutable once passed.
        """
        cache = self._cone_cache
        key = id(affected)
        entry = cache.get(key)
        recorder = obs.get_recorder()
        if entry is not None and entry[0] is affected:
            cache.move_to_end(key)
            if recorder.enabled:
                recorder.count("kernel.cone_reuse")
            return entry[1]
        cone = self._restrict(
            affected if isinstance(affected, (set, frozenset)) else set(affected)
        )
        cache[key] = (affected, cone)
        if len(cache) > _CONE_CACHE_CAP:
            cache.popitem(last=False)
        if recorder.enabled:
            recorder.count("kernel.cone_schedules")
        return cone

    def _restrict(self, affected) -> _ConeSchedule:
        compiled = self.compiled
        names = compiled.net_names
        net_rows = compiled.net_rows
        n_nets = compiled.n_nets
        affected_mask = np.zeros(n_nets, dtype=bool)
        for net in affected:
            affected_mask[net_rows[net]] = True
        keep = np.flatnonzero(affected_mask[self.group_out])
        empty = np.empty(0, dtype=np.int64)
        if not keep.size:
            return _ConeSchedule(empty, empty, [], 0, {})
        out_rows = self.group_out[keep]
        # Net row -> overlay row.  Groups keep their replay order, so a
        # recomputed source (strictly lower level) is always assigned
        # before any group that reads it — a single global pass suffices.
        overlay_of = np.full(n_nets, -1, dtype=np.int64)
        overlay_of[out_rows] = np.arange(len(keep), dtype=np.int64)
        lens = self.group_len[keep]
        new_starts = np.zeros(len(keep), dtype=np.int64)
        np.cumsum(lens[:-1], out=new_starts[1:])
        # Vectorized gather of the kept groups' edge segments: output
        # position new_starts[g] + j must read global position
        # group_start[g] + j.
        take = np.repeat(self.group_start[keep] - new_starts, lens)
        take += np.arange(len(take), dtype=np.int64)
        edges = self.all_edges[take]
        sources = self.all_sources[take]
        inside_all = np.flatnonzero(overlay_of[sources] >= 0)
        inside_src_all = overlay_of[sources[inside_all]]

        # Split the kept groups back into steps wherever the owning plan
        # changes (plan ids are non-decreasing in group order).  Within a
        # fused plan min groups precede max groups, so the kept subset
        # keeps that layout; running counts of min groups/rows give each
        # step its negation boundary.
        plan_ids = self.group_plan[keep]
        neg_flags = self.group_neg[keep]
        neg_group_cum = np.concatenate(([0], np.cumsum(neg_flags)))
        neg_row_cum = np.concatenate(([0], np.cumsum(lens * neg_flags)))
        bounds = np.flatnonzero(np.diff(plan_ids)) + 1
        seg_lo = np.concatenate(([0], bounds))
        seg_hi = np.concatenate((bounds, [len(keep)]))
        steps = []
        for s, e in zip(seg_lo, seg_hi):
            lo = int(new_starts[s])
            hi = int(new_starts[e - 1] + lens[e - 1])
            i0, i1 = np.searchsorted(inside_all, [lo, hi])
            if i1 > i0:
                inside_pos = inside_all[i0:i1]
                inside_src = inside_src_all[i0:i1]
            else:
                inside_pos = None
                inside_src = None
            steps.append((
                lo,
                hi,
                new_starts[s:e] - lo,
                inside_pos,
                inside_src,
                int(s),
                int(e),
                int(neg_row_cum[e] - neg_row_cum[s]),
                int(neg_group_cum[e] - neg_group_cum[s]),
            ))
        overlay_rows = {
            names[int(row)]: index for index, row in enumerate(out_rows)
        }
        return _ConeSchedule(edges, sources, steps, len(keep), overlay_rows)

    # ------------------------------------------------------------------
    def __getstate__(self):
        # Cone restrictions and the edge-position index are cheap to
        # rebuild and access-pattern specific; keep worker pickles lean.
        return (self.compiled, self.val1, self.val2, self.transitions,
                self.plans)

    def __setstate__(self, state):
        compiled, val1, val2, transitions, plans = state
        self.__init__(compiled, val1, val2, transitions, plans)


class CompiledCircuit:
    """Flat-array lowering of a frozen :class:`Circuit` (pattern-free part).

    Nets become rows (topological order); gates carry their fanin net rows,
    the edge index of their first fanin pin (``circuit.edges`` order, so
    edge ``(gate, pin)`` is ``fanin_base[row] + pin``), their controlling
    value (-1 when none) and their topological level.  Pattern schedules
    are cached here, LRU-bounded, keyed by the raw test-vector bytes.
    """

    __slots__ = ("circuit", "net_rows", "net_names", "fanin_rows",
                 "fanin_base", "controlling", "is_input", "level",
                 "_schedule_cache")

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        order = circuit.topological_order
        self.net_names: List[str] = list(order)
        self.net_rows: Dict[str, int] = {
            name: row for row, name in enumerate(order)
        }
        offsets = edge_offsets(circuit)
        levels = circuit.levels
        n = len(order)
        self.fanin_rows: List[Tuple[int, ...]] = [()] * n
        self.fanin_base = np.zeros(n, dtype=np.int64)
        self.controlling = np.full(n, -1, dtype=np.int8)
        self.is_input = np.zeros(n, dtype=bool)
        self.level = np.zeros(n, dtype=np.int64)
        for row, name in enumerate(order):
            gate = circuit.gates[name]
            self.fanin_rows[row] = tuple(
                self.net_rows[fanin] for fanin in gate.fanins
            )
            self.fanin_base[row] = offsets[name]
            controlling = CONTROLLING_VALUE[gate.gate_type]
            if controlling is not None:
                self.controlling[row] = controlling
            self.is_input[row] = gate.gate_type is GateType.INPUT
            self.level[row] = levels[name]
        self._schedule_cache: "OrderedDict[bytes, PatternSchedule]" = OrderedDict()

    @property
    def n_nets(self) -> int:
        return len(self.net_names)

    # ------------------------------------------------------------------
    def schedule_for(self, v1: np.ndarray, v2: np.ndarray) -> PatternSchedule:
        """The (cached) reduction schedule for normalized vectors (v1, v2)."""
        key = v1.tobytes() + b"|" + v2.tobytes()
        cache = self._schedule_cache
        schedule = cache.get(key)
        recorder = obs.get_recorder()
        if schedule is not None:
            cache.move_to_end(key)
            if recorder.enabled:
                recorder.count("kernel.schedule_reuse")
            return schedule
        schedule = self._build_schedule(v1, v2)
        cache[key] = schedule
        if len(cache) > _SCHEDULE_CACHE_CAP:
            cache.popitem(last=False)
        if recorder.enabled:
            recorder.count("kernel.schedules_built")
        return schedule

    def _build_schedule(self, v1: np.ndarray, v2: np.ndarray) -> PatternSchedule:
        circuit = self.circuit
        assignment1 = {net: int(v1[i]) for i, net in enumerate(circuit.inputs)}
        assignment2 = {net: int(v2[i]) for i, net in enumerate(circuit.inputs)}
        val1 = circuit.evaluate(assignment1)
        val2 = circuit.evaluate(assignment2)
        names = self.net_names
        val1_arr = np.fromiter(
            (val1[name] for name in names), dtype=np.int8, count=len(names)
        )
        val2_arr = np.fromiter(
            (val2[name] for name in names), dtype=np.int8, count=len(names)
        )
        transitions = val1_arr != val2_arr
        active = np.flatnonzero(transitions & ~self.is_input)
        # Stable sort keeps topological order within each level — not
        # required for correctness (levels are strict) but deterministic.
        active = active[np.argsort(self.level[active], kind="stable")]

        plans: List[_GroupPlan] = []
        offset = 0
        index = 0
        n_active = len(active)
        while index < n_active:
            current_level = self.level[active[index]]
            builders = {True: ([], [], [], []), False: ([], [], [], [])}
            while index < n_active and self.level[active[index]] == current_level:
                row = int(active[index])
                index += 1
                fanin_rows = self.fanin_rows[row]
                base = int(self.fanin_base[row])
                controlling = int(self.controlling[row])
                pins = None
                is_min = False
                if controlling >= 0:
                    pins = [
                        pin for pin, src in enumerate(fanin_rows)
                        if val2_arr[src] == controlling
                    ]
                    is_min = bool(pins)
                if not is_min:
                    pins = [
                        pin for pin, src in enumerate(fanin_rows)
                        if val1_arr[src] != val2_arr[src]
                    ]
                    if not pins:
                        # Mirror the reference fallback for degenerate
                        # transitioning gates with no transitioning input.
                        pins = list(range(len(fanin_rows)))
                edges, starts, sources, out_rows = builders[is_min]
                starts.append(len(edges))
                edges.extend(base + pin for pin in pins)
                sources.extend(fanin_rows[pin] for pin in pins)
                out_rows.append(row)
            # Fuse the level's min and max groups into one plan, min
            # groups first: their rows/outputs are sign-flipped around a
            # single maximum.reduceat (see _GroupPlan).
            min_edges, min_starts, min_sources, min_outs = builders[True]
            max_edges, max_starts, max_sources, max_outs = builders[False]
            edges = min_edges + max_edges
            starts = min_starts + [len(min_edges) + s for s in max_starts]
            plans.append(_GroupPlan(
                np.asarray(edges, dtype=np.int64),
                np.asarray(starts, dtype=np.int64),
                np.asarray(min_sources + max_sources, dtype=np.int64),
                np.asarray(min_outs + max_outs, dtype=np.int64),
                offset,
                len(min_edges),
                len(min_outs),
            ))
            offset += len(edges)
        return PatternSchedule(self, val1, val2, transitions, plans)

    # ------------------------------------------------------------------
    def __getstate__(self):
        # The schedule cache can hold hundreds of unrelated patterns; a
        # worker only needs the schedules its shipped results reference
        # (pickle memoization carries those through TransitionSimResult).
        return (self.circuit, self.net_rows, self.net_names, self.fanin_rows,
                self.fanin_base, self.controlling, self.is_input, self.level)

    def __setstate__(self, state):
        (self.circuit, self.net_rows, self.net_names, self.fanin_rows,
         self.fanin_base, self.controlling, self.is_input, self.level) = state
        self._schedule_cache = OrderedDict()


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile ``circuit`` (memoized: at most one compilation per circuit)."""
    compiled = getattr(circuit, "_compiled_kernel", None)
    if compiled is None:
        recorder = obs.get_recorder()
        with recorder.span("kernel.compile"):
            compiled = CompiledCircuit(circuit)
        if recorder.enabled:
            recorder.count("kernel.compiles")
        circuit._compiled_kernel = compiled  # type: ignore[attr-defined]
    return compiled


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def _gather_delays(
    delays: np.ndarray,
    edges: np.ndarray,
    edge_pos: Dict[int, int],
    extra_delay: Optional[ExtraDelay],
) -> np.ndarray:
    """``delay[edge]`` rows for a whole schedule, with extra delay applied.

    The addition pairs operands exactly like the reference ``delay_of``
    closure (``delays[edge] + extra[edge]``) to preserve bit-identity.
    Extra delay on an edge outside the schedule (a non-candidate pin) is
    ignored, as it is by the reference kernel.
    """
    rows = delays[edges]
    if extra_delay:
        for edge_index, value in extra_delay.items():
            pos = edge_pos.get(int(edge_index))
            if pos is not None:
                rows[pos] = rows[pos] + np.asarray(value)
    return rows


def simulate_transition_compiled(
    timing: CircuitTiming,
    v1: np.ndarray,
    v2: np.ndarray,
    extra_delay: Optional[ExtraDelay] = None,
    sample_index: Optional[int] = None,
) -> TransitionSimResult:
    """Compiled-kernel implementation of
    :func:`repro.timing.dynamic.simulate_transition` (bit-identical)."""
    circuit = timing.circuit
    compiled = compile_circuit(circuit)
    v1 = np.asarray(v1).astype(int).ravel()
    v2 = np.asarray(v2).astype(int).ravel()
    if v1.shape[0] != len(circuit.inputs) or v2.shape[0] != len(circuit.inputs):
        raise ValueError("test vectors must cover every primary input")
    schedule = compiled.schedule_for(v1, v2)

    if sample_index is None:
        delays = timing.delays
        width = timing.space.n_samples
    else:
        delays = timing.delays[:, sample_index : sample_index + 1]
        width = 1

    stable = np.zeros((compiled.n_nets, width))
    if len(schedule.all_edges):
        dl = _gather_delays(
            delays, schedule.all_edges,
            schedule.edge_pos if extra_delay else {}, extra_delay,
        )
        for plan in schedule.plans:
            rows = stable[plan.sources] + dl[plan.lo : plan.hi]
            if plan.neg_rows:
                seg = rows[: plan.neg_rows]
                np.negative(seg, out=seg)
            out = np.maximum.reduceat(rows, plan.starts, axis=0)
            if plan.neg_groups:
                seg = out[: plan.neg_groups]
                np.negative(seg, out=seg)
            stable[plan.out_rows] = out

    recorder = obs.get_recorder()
    if recorder.enabled:
        recorder.count("dynamic.transition_sims")
        recorder.count("dynamic.net_transitions", schedule.n_net_transitions)
        recorder.count("kernel.reductions", len(schedule.all_edges))
    return TransitionSimResult(
        timing,
        v1,
        v2,
        schedule.val1,
        schedule.val2,
        StableTimes(stable, compiled.net_rows),
        width,
        sample_index,
        kernel_state=schedule,
    )


def _run_cone_steps(
    cone: _ConeSchedule,
    rows: np.ndarray,
    dl: np.ndarray,
    overlay: np.ndarray,
) -> None:
    """Evaluate a cone schedule's level steps into ``overlay`` in place.

    ``rows`` holds ``stable[source] + delay`` for every cone edge (it is
    clobbered) and ``dl`` the matching delays.  Rows whose driver is
    recomputed get re-summed from the overlay once that overlay row
    exists (drivers sit at strictly lower levels, i.e. in earlier steps).
    """
    for (lo, hi, starts, inside_pos, inside_src, out_lo, out_hi,
            neg_rows, neg_groups) in cone.steps:
        if inside_pos is not None:
            rows[inside_pos] = overlay[inside_src] + dl[inside_pos]
        if neg_rows:
            seg = rows[lo : lo + neg_rows]
            np.negative(seg, out=seg)
        np.maximum.reduceat(
            rows[lo:hi], starts, axis=0, out=overlay[out_lo:out_hi]
        )
        if neg_groups:
            seg = overlay[out_lo : out_lo + neg_groups]
            np.negative(seg, out=seg)


def resimulate_with_extra_compiled(
    base: TransitionSimResult,
    extra_delay: ExtraDelay,
    affected: Optional[Iterable[str]] = None,
) -> TransitionSimResult:
    """Cone-restricted schedule replay behind
    :func:`repro.timing.dynamic.resimulate_with_extra` (bit-identical)."""
    schedule = base.kernel_state
    if not isinstance(schedule, PatternSchedule):
        raise TypeError("base result does not carry a compiled-kernel schedule")
    timing = base.timing
    circuit = timing.circuit

    if affected is None:
        affected = set()
        edges = circuit.edges
        for edge_index in extra_delay:
            affected.update(circuit.fanout_cone(edges[edge_index].sink))
        if not affected:
            return base
        affected = frozenset(affected)
    elif not affected:
        return base
    elif not hasattr(affected, "__len__"):
        affected = set(affected)
        if not affected:
            return base
    recorder = obs.get_recorder()
    if recorder.enabled:
        recorder.count("dynamic.resimulations")
        recorder.count("dynamic.nets_recomputed", len(affected))

    cone = schedule.cone_for(affected)
    delays = (
        timing.delays
        if base.sample_index is None
        else timing.delays[:, base.sample_index : base.sample_index + 1]
    )
    base_stable = base.stable
    if not isinstance(base_stable, StableTimes):
        raise TypeError("compiled re-simulation requires a compiled base result")
    base_matrix = base_stable.matrix

    overlay = np.empty((cone.n_overlay, base.width))
    if cone.steps:
        dl = delays[cone.edges]
        if extra_delay:
            edge_pos = cone.edge_pos
            for edge_index, value in extra_delay.items():
                pos = edge_pos.get(int(edge_index))
                if pos is not None:
                    dl[pos] = dl[pos] + np.asarray(value)
        rows = base_matrix[cone.sources]
        rows += dl
        _run_cone_steps(cone, rows, dl, overlay)
        if recorder.enabled:
            recorder.count("kernel.reductions", len(cone.edges))

    stable = ConeStableTimes(base_stable, overlay, cone.overlay_rows)
    # ``kernel_state`` stays None: a replay of a replay would need the
    # overlay folded back into a full matrix; the reference path handles
    # that rare case instead (bit-identically).
    return TransitionSimResult(
        timing,
        base.v1,
        base.v2,
        base.val1,
        base.val2,
        stable,
        base.width,
        base.sample_index,
    )


def replay_cone_sizes_compiled(
    base: TransitionSimResult,
    edge_index: int,
    size_vectors: Sequence[np.ndarray],
    affected: Iterable[str],
    nets: Sequence[str],
) -> np.ndarray:
    """Batched cone replays for one suspect edge.

    Returns the ``(len(size_vectors), len(nets), width)`` settle rows of
    ``nets`` after adding each vector of ``size_vectors`` to the edge.
    The sampling subsystem re-simulates the same (suspect, pattern) cone
    once per allocation round; this hoists the cone schedule lookup, the
    delay gather and the candidate-row gather across the whole batch
    instead of paying them per round.  Bit-identical to calling
    :func:`resimulate_with_extra_compiled` once per vector and stacking
    ``stable.take_rows(nets)``.
    """
    schedule = base.kernel_state
    if not isinstance(schedule, PatternSchedule):
        raise TypeError("base result does not carry a compiled-kernel schedule")
    timing = base.timing
    if not hasattr(affected, "__len__"):
        affected = set(affected)
    nets = list(nets)
    size_vectors = list(size_vectors)
    out = np.empty((len(size_vectors), len(nets), base.width))
    if not affected or not size_vectors:
        return out

    base_stable = base.stable
    if not isinstance(base_stable, StableTimes):
        raise TypeError("compiled re-simulation requires a compiled base result")
    cone = schedule.cone_for(affected)
    overlay_rows = cone.overlay_rows
    row_index = [overlay_rows.get(net) for net in nets]

    recorder = obs.get_recorder()
    if recorder.enabled:
        recorder.count("dynamic.resimulations", len(size_vectors))
        recorder.count(
            "dynamic.nets_recomputed", len(affected) * len(size_vectors)
        )

    if not cone.steps:
        # Nothing recomputed in this cone: every requested net falls
        # through to the base rows for every vector.
        if nets:
            out[:] = np.stack([base_stable[net] for net in nets])
        return out

    delays = (
        timing.delays
        if base.sample_index is None
        else timing.delays[:, base.sample_index : base.sample_index + 1]
    )
    dl0 = delays[cone.edges]
    src0 = base_stable.matrix[cone.sources]
    pos = cone.edge_pos.get(int(edge_index))
    overlay = np.empty((cone.n_overlay, base.width))
    base_rows = {
        net: base_stable[net]
        for net, row in zip(nets, row_index)
        if row is None
    }
    for vector, sizes in enumerate(size_vectors):
        dl = dl0
        if pos is not None:
            dl = dl0.copy()
            dl[pos] = dl0[pos] + np.asarray(sizes)
        _run_cone_steps(cone, src0 + dl, dl, overlay)
        for column, (net, row) in enumerate(zip(nets, row_index)):
            out[vector, column] = (
                overlay[row] if row is not None else base_rows[net]
            )
    if recorder.enabled:
        recorder.count("kernel.reductions", len(cone.edges) * len(size_vectors))
    return out


#: Cells (slab edge rows x samples) one fused pass holds per work array
#: (1 MB of float64).  A chunk whose live instances need more runs in
#: several passes, so a full-edge dictionary's chunk stays bounded in
#: memory.  On ``perfbench``'s ``volume`` chips, 2**17 gave about 9 MB
#: less peak RSS than 2**19 at the same speed; 2**16 was slower.
_FUSED_PASS_CELLS = 1 << 17


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _split_by_column(columns: np.ndarray) -> List[Tuple[int, int, int]]:
    """``(column, lo, hi)`` runs of a column-sorted array."""
    if not len(columns):
        return []
    cuts = (np.flatnonzero(columns[1:] != columns[:-1]) + 1).tolist()
    bounds = [0] + cuts + [len(columns)]
    return [
        (int(columns[lo]), lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _fused_pass(
    matrices: Sequence[np.ndarray],
    delays: np.ndarray,
    sizes: np.ndarray,
    instances: Sequence[Tuple[int, _Slab, int]],
    out: np.ndarray,
) -> None:
    """Replay the slabs of ``instances`` (column-sorted) level-synchronously
    and write their slab read-outs into ``out``.

    Every instance's slab edge rows are stacked along the row axis of one
    ``(n_edges, width)`` matrix, ordered by (slab step, pin index, min
    before max, longest group first).  Within a step, the pin-0 rows of
    all groups are contiguous and double as the groups' accumulators; the
    pin-``j`` rows of the groups with more than ``j`` candidates sit in
    one contiguous block per reduction kind, right under their
    accumulators' prefix.  One global step therefore runs the
    same-ordinal step of every instance: one inside-row re-sum, then one
    ``np.minimum`` / ``np.maximum`` per (pin index, kind) over contiguous
    slices.  Each group folds its own candidates in pin order,
    ``acc = op(acc, x_j)`` — the order ``ufunc.reduceat`` folds a segment
    in — so every value is bit-identical to its solo cone replay.
    """
    width = out.shape[1]
    slabs = [slab for _column, slab, _offset in instances]
    g_count = np.array([slab.n_groups for slab in slabs], dtype=np.int64)
    e_count = np.array([slab.n_edges for slab in slabs], dtype=np.int64)
    g_off = _exclusive_cumsum(g_count)
    e_off = _exclusive_cumsum(e_count)
    step = np.concatenate([slab.step for slab in slabs])
    is_max = ~np.concatenate([slab.is_min for slab in slabs])
    lens = np.concatenate([slab.lens for slab in slabs])
    edges = np.concatenate([slab.edges for slab in slabs])
    sources = np.concatenate([slab.sources for slab in slabs])
    inside = np.concatenate([slab.inside for slab in slabs])
    has_inside = inside >= 0
    inside[has_inside] += np.repeat(g_off, e_count)[has_inside]
    suspects = e_off + np.array([slab.suspect for slab in slabs],
                                dtype=np.int64)
    n_groups = len(step)
    n_edges = len(edges)

    # Row layout: groups ranked within their step (min first, longest
    # first), edge rows sorted by (step, pin, group rank).
    group_of = np.repeat(np.arange(n_groups, dtype=np.int64), lens)
    g_start = _exclusive_cumsum(lens)
    pin = np.arange(n_edges, dtype=np.int64) - g_start[group_of]
    rank = np.empty(n_groups, dtype=np.int64)
    rank[np.lexsort((-lens, is_max, step))] = np.arange(n_groups)
    edge_step = step[group_of]
    order = np.lexsort((rank[group_of], pin, edge_step))
    row_of = np.empty(n_edges, dtype=np.int64)
    row_of[order] = np.arange(n_edges, dtype=np.int64)
    acc = row_of[g_start]

    # Driver rows, one gather per pattern matrix (instances are sorted by
    # column, so each column's edge rows are one contiguous input block),
    # scattered straight into the row layout; then ``+ delay`` in place.
    rows = np.empty((n_edges, width))
    columns = np.array([column for column, _slab, _offset in instances],
                       dtype=np.int64)
    for column, lo, hi in _split_by_column(columns):
        e_lo = int(e_off[lo])
        e_hi = int(e_off[hi - 1] + e_count[hi - 1])
        rows[row_of[e_lo:e_hi]] = matrices[column][sources[e_lo:e_hi]]
    dl = delays[edges[order]]
    suspect_rows = row_of[suspects]
    dl[suspect_rows] = dl[suspect_rows] + sizes
    rows += dl
    inside = inside[order]
    inside_rows = np.flatnonzero(inside >= 0)
    inside_acc = acc[inside[inside_rows]]
    inside_dl = dl[inside_rows]

    # Per step: its slice of the re-summed rows, and one fold per run of
    # (pin > 0, kind) rows into the matching prefix of its accumulators.
    edge_step = edge_step[order]
    pin = pin[order]
    kind = is_max[group_of[order]]
    step_cut = np.flatnonzero(edge_step[1:] != edge_step[:-1]) + 1
    run_cut = np.union1d(step_cut, np.flatnonzero(
        (pin[1:] != pin[:-1]) | (kind[1:] != kind[:-1])
    ) + 1)
    run_lo = np.concatenate(([0], run_cut))
    run_hi = np.append(run_cut, n_edges)
    i_bounds = np.searchsorted(
        inside_rows, np.concatenate(([0], step_cut, [n_edges]))
    ).tolist()
    program = []
    for run_step, run_pin, run_kind, lo, hi in zip(
        edge_step[run_lo].tolist(), pin[run_lo].tolist(),
        kind[run_lo].tolist(), run_lo.tolist(), run_hi.tolist(),
    ):
        if run_step == len(program):
            first, n_min, ops = lo, 0, []
            program.append((i_bounds[run_step], i_bounds[run_step + 1], ops))
        if run_pin == 0:
            if not run_kind:
                n_min = hi - lo
            continue
        start = first + (n_min if run_kind else 0)
        ops.append((np.maximum if run_kind else np.minimum,
                    start, start + hi - lo, lo, hi))

    for i_lo, i_hi, ops in program:
        if i_hi > i_lo:
            rows[inside_rows[i_lo:i_hi]] = (
                rows[inside_acc[i_lo:i_hi]] + inside_dl[i_lo:i_hi]
            )
        for fold, a, b, lo, hi in ops:
            fold(rows[a:b], rows[lo:hi], out=rows[a:b])

    # Read-out: one gather of every (instance, net) row the slabs own.
    read_local = np.concatenate([slab.read_local for slab in slabs])
    counts = np.array([len(slab.read_local) for slab in slabs],
                      dtype=np.int64)
    offsets = np.array([offset for _column, _slab, offset in instances],
                       dtype=np.int64)
    position = np.repeat(offsets - _exclusive_cumsum(counts), counts)
    position += np.arange(len(read_local), dtype=np.int64)
    owned = read_local >= 0
    local = read_local[owned] + np.repeat(g_off, counts)[owned]
    out[position[owned]] = rows[acc[local]]


def replay_chunk_compiled(
    base_simulations: Sequence[TransitionSimResult],
    requests: Sequence[ReplayRequest],
    sizes: np.ndarray,
) -> np.ndarray:
    """Fused cone replays for a whole dictionary chunk.

    Each request ``(column, edge_indices, affected, nets)`` asks for the
    settle rows of ``nets`` after adding ``sizes`` to each edge of
    ``edge_indices`` in turn, replayed over the cone ``affected`` against
    ``base_simulations[column]``.  Returns one ``(n_rows, width)`` array
    holding, request by request and edge by edge, ``len(nets)`` rows each
    — bit-identical to ``resimulate_with_extra(base, {edge: sizes},
    affected=affected).stable.take_rows(nets)`` per (request, edge).

    Plan: every (edge, request) pair whose edge is a candidate pin of the
    pattern's cone schedule is one *instance*, reduced to its
    :class:`_Slab` — the cone groups the edge can change that also reach a
    read-out net.  Execute: the instances' slabs replay together, one
    level step at a time, in passes bounded by :data:`_FUSED_PASS_CELLS`
    (:func:`_fused_pass`).  Rows outside a slab, and every row of a pair
    whose edge is not a candidate pin (``kernel.replays_skipped``) or
    whose slab is empty, are read from the base matrix: replaying the
    unperturbed part of a cone reproduces the base rows exactly.  That
    needs the bases to be simulations without extra delay, as every
    dictionary base simulation is, sharing one timing model and sample
    selection.
    """
    sizes = np.asarray(sizes)
    first = None
    plans: List[Tuple[int, _Slab, int]] = []
    n_rows = 0
    skipped = live = recomputed = 0
    for column, edge_indices, affected, nets in requests:
        if not len(edge_indices):
            continue
        base = base_simulations[column]
        schedule = base.kernel_state
        if not isinstance(schedule, PatternSchedule):
            raise TypeError(
                "base result does not carry a compiled-kernel schedule"
            )
        if not isinstance(base.stable, StableTimes):
            raise TypeError(
                "compiled re-simulation requires a compiled base result"
            )
        if first is None:
            first = base
        elif (base.timing is not first.timing
              or base.sample_index != first.sample_index):
            raise ValueError(
                "fused replay needs one timing model and sample selection"
            )
        nets = tuple(nets)
        net_rows = schedule.compiled.net_rows
        if not hasattr(affected, "__len__"):
            affected = set(affected)
        cone = schedule.cone_for(affected)
        edge_pos = cone.edge_pos
        for edge in edge_indices:
            pos = edge_pos.get(int(edge), -1)
            plans.append((column, cone.slab(pos, nets, net_rows), n_rows))
            n_rows += len(nets)
            if pos < 0:
                skipped += 1
            else:
                live += 1
                recomputed += len(affected)
    if first is None:
        return np.empty((0, base_simulations[0].width if base_simulations
                         else 0))
    width = first.width
    out = np.empty((n_rows, width))
    matrices = [
        getattr(base.stable, "matrix", None) for base in base_simulations
    ]

    # Base rows for every read-out a slab does not own, one gather per
    # pattern matrix.
    read_local = np.concatenate([slab.read_local for _c, slab, _o in plans])
    read_rows = np.concatenate([slab.read_rows for _c, slab, _o in plans])
    counts = [len(slab.read_local) for _c, slab, _o in plans]
    row_column = np.repeat(
        np.array([column for column, _s, _o in plans], dtype=np.int64), counts
    )
    fallback = np.flatnonzero(read_local < 0)
    fallback = fallback[np.argsort(row_column[fallback], kind="stable")]
    for column, lo, hi in _split_by_column(row_column[fallback]):
        positions = fallback[lo:hi]
        out[positions] = matrices[column][read_rows[positions]]

    instances = sorted(
        (plan for plan in plans if plan[1].n_groups),
        key=lambda plan: plan[0],
    )
    reductions = 0
    if instances:
        timing = first.timing
        delays = (
            timing.delays
            if first.sample_index is None
            else timing.delays[:, first.sample_index : first.sample_index + 1]
        )
        budget = max(1, _FUSED_PASS_CELLS // width)
        batch: List[Tuple[int, _Slab, int]] = []
        batch_rows = 0
        for plan in instances:
            n_edges = plan[1].n_edges
            if batch and batch_rows + n_edges > budget:
                _fused_pass(matrices, delays, sizes, batch, out)
                batch, batch_rows = [], 0
            batch.append(plan)
            batch_rows += n_edges
            reductions += n_edges
        _fused_pass(matrices, delays, sizes, batch, out)

    recorder = obs.get_recorder()
    if recorder.enabled:
        if skipped:
            recorder.count("kernel.replays_skipped", skipped)
        if live:
            recorder.count("dynamic.resimulations", live)
            recorder.count("dynamic.nets_recomputed", recomputed)
            recorder.count("kernel.reductions", reductions)
    return out
