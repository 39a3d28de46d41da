"""The campaign manifest — Cheetah↔Savanna interoperability layer.

"Cheetah and Savanna communicate via an interoperability layer designed
to represent an abstract manifest of the campaign.  This layer implements
a JSON schema to describe the full campaign" (§IV).  The manifest is the
boundary that lets other workflow tools be imported as executors: anything
that can read this JSON can run the campaign.

A manifest holds its runs as one :class:`RunTable`: the campaign stored
as columns (run ids, widths, and one column per parameter), the way a
``Sweep`` already describes it as value lists.  Indexing or iterating
the table yields :class:`RunSpec`\\ s, views of its rows; the passes that
walk a whole campaign before it runs (the JSON writer, the lint gate,
the drive's pending set and its task list) read the columns instead.  A
run's ``parameters`` mapping is built once per row, shared by its
``RunSpec`` and the simulated task built from it, and read-only: the
columns are the record, so a value is composed through the sweep, never
edited in place.

:func:`manifest_to_json` writes the schema-1.0 text from the columns,
byte for byte what ``json.dumps(doc, sort_keys=True)`` writes for the
one-dict-per-run document; :func:`manifest_from_json` reads it back
into a table.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import NamedTuple

from repro._util import ValidationError

MANIFEST_SCHEMA_VERSION = "1.0"


class _Parameters(dict):
    """One run's parameters: a dict that refuses edits.

    It prints, compares, pickles and encodes to JSON as the dict it
    holds; ``dict(p)`` or ``p.copy()`` gives a mutable copy.
    """

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(
            "a run's parameters are read-only: compose the value through "
            "the sweep, or build the RunSpec with it"
        )

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return (type(self), (dict(self),))


def node_width(nodes, what: str = "nodes") -> int:
    """``nodes`` as a whole number of nodes >= 1: the width rule.

    Integers pass, and so does anything ``operator.index`` takes (numpy
    integers); ``bool``, floats and strings raise a ``ValidationError``
    that names the value as ``what``.
    """
    width = 0
    if not isinstance(nodes, bool):
        try:
            width = operator.index(nodes)
        except TypeError:
            pass
    if width < 1:
        raise ValidationError(f"{what} must be a whole number >= 1, got {nodes!r}")
    return width


@dataclass(frozen=True)
class RunSpec:
    """One experiment in the campaign: an id, its parameters, its resources.

    ``parameters`` is read-only (see the module docstring); a dict given
    here is copied into it.
    """

    run_id: str
    group: str
    parameters: dict
    nodes: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", node_width(self.nodes))
        if not self.run_id:
            raise ValueError("run_id must be non-empty")
        if type(self.parameters) is not _Parameters:
            object.__setattr__(self, "parameters", _Parameters(self.parameters))


class _Segment(NamedTuple):
    """Rows ``start:stop`` of a run table: one group, one list of
    parameter names, and one column of values per name."""

    start: int
    stop: int
    group: str
    names: tuple
    columns: tuple


class RunTable(Sequence):
    """A campaign's runs, stored as columns.

    ``ids`` and ``widths`` (each run's ``nodes``) hold one entry per row.
    The rows fall into ``segments``: stretches of consecutive runs of one
    group that bind the same parameter names in the same order.  Each
    segment holds its ``start`` and ``stop`` rows, its ``group``, its
    ``names`` and one column of values per name.  ``parameters`` holds
    each row's read-only mapping, built on first use and then shared.

    The table is a sequence of :class:`RunSpec`\\ s: an index gives one
    (a slice, a tuple of them), and iterating gives them all.  It is
    built from ``runs``, an iterable of ``RunSpec``\\ s; run ids must be
    unique and are checked once, here.  :meth:`take` narrows a table to
    some of its rows without checking them again.
    """

    __slots__ = ("_ids", "_widths", "_segments", "_parameters", "_specs")

    def __init__(self, runs=()):
        runs = tuple(runs)
        for run in runs:
            if not isinstance(run, RunSpec):
                raise TypeError(f"a run table holds RunSpecs, got {type(run).__name__}")
        parameters = tuple(run.parameters for run in runs)
        self._fill(
            [run.run_id for run in runs],
            [run.group for run in runs],
            parameters,
            [run.nodes for run in runs],
        )
        self._parameters = parameters
        self._specs = runs

    @classmethod
    def _from_rows(cls, ids, groups, parameters, widths) -> "RunTable":
        """A table of the runs given column by column: ``parameters``
        holds one mapping per run."""
        table = cls.__new__(cls)
        table._fill(ids, groups, parameters, widths)
        return table

    def _fill(self, ids, groups, parameters, widths) -> None:
        ids = tuple(ids)
        if not all(ids):
            raise ValueError("run_id must be non-empty")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate run_ids in manifest")
        if not (set(map(type, widths)) <= {int} and min(widths, default=1) >= 1):
            widths = [node_width(w, f"run {run_id!r}: nodes") for run_id, w in zip(ids, widths)]
        segments = []
        start = 0
        for (group, names), rows in groupby(zip(groups, map(tuple, parameters))):
            stop = start + len(list(rows))
            columns = tuple(zip(*map(dict.values, parameters[start:stop])))
            segments.append(_Segment(start, stop, group, names, columns))
            start = stop
        self._ids = ids
        self._widths = tuple(widths)
        self._segments = tuple(segments)
        self._parameters = self._specs = None

    @property
    def ids(self) -> tuple:
        """Each row's run id."""
        return self._ids

    @property
    def widths(self) -> tuple:
        """Each row's width: the nodes its run needs at once."""
        return self._widths

    @property
    def segments(self) -> tuple:
        """The rows, as stretches of one group and one list of names."""
        return self._segments

    @property
    def parameters(self) -> tuple:
        """Each row's read-only parameters mapping, built once per table."""
        if self._parameters is None:
            built = []
            for seg in self.segments:
                rows = zip(*seg.columns) if seg.names else repeat((), seg.stop - seg.start)
                built += [_Parameters(zip(seg.names, row)) for row in rows]
            self._parameters = tuple(built)
        return self._parameters

    def _views(self) -> tuple:
        if self._specs is None:
            ids, widths, parameters = self.ids, self.widths, self.parameters
            self._specs = tuple(
                RunSpec(ids[i], seg.group, parameters[i], widths[i])
                for seg in self.segments
                for i in range(seg.start, seg.stop)
            )
        return self._specs

    def rows_of(self, group) -> list:
        """The rows of ``group``, in ascending order."""
        return list(
            chain.from_iterable(
                range(seg.start, seg.stop) for seg in self.segments if seg.group == group
            )
        )

    def take(self, rows) -> "RunTable":
        """The table of ``rows``, distinct row indices in ascending order.

        It shares this table's values and parameters mappings, and is not
        checked again: its ids are some of this table's.
        """
        rows = list(rows)
        n = len(self._ids)
        if rows and not (
            0 <= rows[0] and rows[-1] < n and all(map(operator.lt, rows, rows[1:]))
        ):
            raise ValueError(f"rows must be distinct indices below {n}, in ascending order")
        if len(rows) == n:
            return self
        segments = []
        for seg in self._segments:
            lo = bisect_left(rows, seg.start)
            hi = bisect_left(rows, seg.stop, lo)
            if lo == hi:
                continue
            if hi - lo == seg.stop - seg.start:
                columns = seg.columns
            else:
                offsets = [i - seg.start for i in rows[lo:hi]]
                columns = tuple(tuple(map(column.__getitem__, offsets)) for column in seg.columns)
            segments.append(_Segment(lo, hi, seg.group, seg.names, columns))
        table = RunTable.__new__(RunTable)
        table._ids = tuple(map(self._ids.__getitem__, rows))
        table._widths = tuple(map(self._widths.__getitem__, rows))
        table._segments = tuple(segments)
        table._parameters = tuple(map(self.parameters.__getitem__, rows))
        table._specs = None
        return table

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        return self._views()[index]

    def __iter__(self):
        return iter(self._views())

    def __eq__(self, other):
        if isinstance(other, RunTable):
            return self is other or self._views() == other._views()
        if isinstance(other, tuple):
            return self._views() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"RunTable({self._views()!r})"


@dataclass(frozen=True)
class CampaignManifest:
    """Abstract, executor-independent description of a full campaign.

    ``runs`` is a :class:`RunTable`; any other iterable of
    :class:`RunSpec`\\ s is turned into one.  Group names are unique.
    """

    campaign: str
    app: str
    runs: RunTable
    executable: str = ""
    objective: str = ""
    groups: tuple = ()  # tuple[dict, ...] with name/nodes/walltime/runs
    schema_version: str = MANIFEST_SCHEMA_VERSION
    #: Free-form campaign metadata (e.g. ``{"lint": {"suppress": [...]}}``);
    #: round-trips through the JSON interop format.
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.runs, RunTable):
            object.__setattr__(self, "runs", RunTable(self.runs))
        names = [g["name"] for g in self.groups]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"duplicate group {name!r} in manifest")

    def group_meta(self, name: str) -> dict:
        for g in self.groups:
            if g["name"] == name:
                return g
        raise KeyError(name)

    def runs_in_group(self, name: str) -> tuple:
        return tuple(map(self.runs.__getitem__, self.runs.rows_of(name)))

    def __len__(self) -> int:
        return len(self.runs)


#: Spells one value as ``json.dumps(value, sort_keys=True)`` does.
_spell = json.JSONEncoder(sort_keys=True).encode


def _spelled(values) -> list:
    """Each of ``values`` spelled as :data:`_spell` spells it: a column
    of one plain type in one C-level pass, anything else value by value."""
    kinds = set(map(type, values))
    if kinds <= {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {float} and all(map(isfinite, values)):
        return list(map(float.__repr__, values))
    return list(map(_spell, values))


def _parameter_texts(seg: _Segment):
    """Each row's ``"parameters"`` object of one segment, keys sorted."""
    names = seg.names
    if not names:
        return repeat("{}", seg.stop - seg.start)
    if not all(type(name) is str for name in names):
        return [_spell(dict(zip(names, row))) for row in zip(*seg.columns)]
    texts = None
    for j in sorted(range(len(names)), key=names.__getitem__):
        prefix = f"{'{' if texts is None else ', '}{encode_basestring_ascii(names[j])}: "
        column = map(prefix.__add__, _spelled(seg.columns[j]))
        texts = list(column) if texts is None else list(map(str.__add__, texts, column))
    return [text + "}" for text in texts]


def manifest_to_json(manifest: CampaignManifest) -> str:
    """Serialize to the JSON interop format: compact, with sorted keys.

    The text is what ``json.dumps(doc, sort_keys=True)`` writes for the
    document with one ``{"run_id", "group", "parameters", "nodes"}``
    dict per run, written from the run table's columns without building
    those dicts.  No ``indent``: readers parse the document, so indented
    files written by older versions still load.
    """
    table = manifest.runs
    ids, widths = _spelled(table.ids), _spelled(table.widths)
    runs = []
    for seg in table.segments:
        head = f'{{"group": {_spell(seg.group)}, "nodes": '
        runs += [
            f'{head}{width}, "parameters": {parameters}, "run_id": {run_id}}}'
            for width, parameters, run_id in zip(
                widths[seg.start : seg.stop], _parameter_texts(seg), ids[seg.start : seg.stop]
            )
        ]
    return (
        f'{{"app": {_spell(manifest.app)}, "campaign": {_spell(manifest.campaign)}, '
        f'"executable": {_spell(manifest.executable)}, '
        f'"groups": {_spell(list(manifest.groups))}, '
        f'"metadata": {_spell(manifest.metadata)}, '
        f'"objective": {_spell(manifest.objective)}, '
        f'"runs": [{", ".join(runs)}], '
        f'"schema_version": {_spell(manifest.schema_version)}}}'
    )


def manifest_from_json(text: str) -> CampaignManifest:
    """Parse the JSON interop format; validates schema version, run ids
    and widths (a width that is not a whole number of nodes raises
    ``ValueError`` naming its run)."""
    doc = json.loads(text)
    version = doc.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported manifest schema version {version!r}; "
            f"expected {MANIFEST_SCHEMA_VERSION!r}"
        )
    runs = doc["runs"]
    return CampaignManifest(
        campaign=doc["campaign"],
        app=doc["app"],
        executable=doc.get("executable", ""),
        objective=doc.get("objective", ""),
        groups=tuple(dict(g) for g in doc.get("groups", ())),
        runs=RunTable._from_rows(
            [r["run_id"] for r in runs],
            [r["group"] for r in runs],
            [r["parameters"] for r in runs],
            [r.get("nodes", 1) for r in runs],
        ),
        metadata=dict(doc.get("metadata", {})),
    )
