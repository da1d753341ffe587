"""Declarative campaign specifications.

The paper's experiments are *campaigns*: 100 initial simplex states x
{DET, MN, PC, PC+MN, ANDERSON} x several test functions x noise levels.  A
:class:`CampaignSpec` captures one such grid declaratively — algorithm
variants (an algorithm name plus constructor options, so "PC with k=1" and
"PC with k=2" are distinct cells), test functions, dimensionalities, noise
scales, and seeds — and expands it into a deterministic list of
:class:`Job` records.

Every job has a *stable* identifier: the SHA-1 of its canonical JSON
encoding.  Stability is what makes campaigns durable — a re-run expands the
same spec to the same ids and can skip everything the result store already
holds, and two stores from interrupted and uninterrupted runs agree
job-for-job.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

#: Fields that define a job's aggregation cell (everything but the seed
#: that varies across a grid) — the single definition behind
#: :attr:`Job.cell` and the SQLite store's cell index.
CELL_FIELDS = ("label", "algorithm", "function", "dim", "sigma0")

#: Scheduling-policy fields of a spec (and the job-level subset) — pure
#: execution placement, deliberately excluded from job identity and from
#: :meth:`CampaignSpec.same_grid`: changing where or how urgently a
#: campaign runs must not orphan the results it already produced.
SCHEDULING_FIELDS = ("constraints", "priority", "weight", "max_inflight")

#: Valid values of the ``priority`` scheduling field (two-level queue).
PRIORITIES = ("high", "low")

#: Fields that define a job's identity (hashed into the job id).
_IDENTITY_FIELDS = (
    "label",
    "algorithm",
    "function",
    "dim",
    "sigma0",
    "seed",
    "noise_mode",
    "tau",
    "walltime",
    "max_steps",
    "low",
    "high",
    "options",
)


def _plain_json(value: Any) -> Any:
    """:func:`repro.core.state.plain_json`, imported on first use.

    That module brings numpy, and the store engines import this one for
    :data:`CELL_FIELDS` alone.  The first call swaps the real function in.
    """
    global _plain_json
    from repro.core.state import plain_json as _plain_json

    return _plain_json(value)


def _canonical(value: Any) -> Any:
    """Reduce a value to canonical JSON-compatible types.

    Containers are handled here (mapping keys sorted for determinism);
    scalar normalization is delegated to
    :func:`repro.core.state.plain_json`.  Non-JSON option values (e.g. a
    ``ConditionSet``) fall back to ``repr``, which is stable for the option
    objects the optimizers accept — such values hash fine but cannot be
    *persisted* (see :meth:`CampaignSpec.save`).
    """
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    plain = _plain_json(value)  # lists, tuples and arrays come back as lists
    if isinstance(plain, list):
        return [_canonical(v) for v in plain]
    if plain is None or isinstance(plain, (bool, int, float, str)):
        return plain
    return repr(plain)


def _is_plain_json(value: Any) -> bool:
    """Whether a value survives a JSON round-trip unchanged in meaning."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_plain_json(v) for v in value)
    if isinstance(value, Mapping):
        return all(
            isinstance(k, str) and _is_plain_json(v) for k, v in value.items()
        )
    return False


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding used for hashing and spec comparison."""
    return json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class AlgorithmVariant:
    """One algorithm cell of the grid: a paper name plus constructor options.

    ``label`` distinguishes variants of the same algorithm ("PC(k=1)" vs
    "PC(k=2)" in the Fig. 3.7 study); it defaults to the algorithm name.
    """

    algorithm: str
    options: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", self.algorithm.upper())
        if not self.label:
            object.__setattr__(self, "label", self.algorithm)

    def to_dict(self) -> dict:
        """Canonical JSON shape of the variant (used in spec files)."""
        return {
            "label": self.label,
            "algorithm": self.algorithm,
            "options": _canonical(self.options),
        }

    @classmethod
    def from_any(cls, value: Union[str, Mapping, "AlgorithmVariant"]) -> "AlgorithmVariant":
        """Coerce a name, mapping, or variant into an :class:`AlgorithmVariant`."""
        if isinstance(value, AlgorithmVariant):
            return value
        if isinstance(value, str):
            return cls(algorithm=value)
        return cls(
            algorithm=value["algorithm"],
            options=dict(value.get("options", {})),
            label=value.get("label", ""),
        )


@dataclass(frozen=True)
class Job:
    """One fully-specified optimizer run inside a campaign.

    ``options`` may hold rich objects (e.g. ``ConditionSet``) when the
    campaign is built programmatically; JSON spec files are restricted to
    plain JSON options.

    ``constraints`` and ``priority`` are scheduling policy inherited from
    the spec: the capability names a worker must declare to run this job,
    and which of the two per-tenant queue bands it enters.  Neither is
    part of the job's identity — moving a campaign to different workers
    must not change its job ids.
    """

    campaign: str
    label: str
    algorithm: str
    function: str
    dim: int
    sigma0: float
    seed: int
    noise_mode: str = "resample"
    tau: float = 1e-3
    walltime: float = 3e4
    max_steps: int = 600
    low: float = -5.0
    high: float = 5.0
    options: Dict[str, Any] = field(default_factory=dict)
    constraints: Sequence[str] = ()
    priority: str = "low"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "constraints", tuple(sorted(str(c) for c in self.constraints))
        )
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {self.priority!r}"
            )

    @functools.cached_property
    def job_id(self) -> str:
        """Stable content hash of the job's identity fields.

        Cached per instance (writes through ``__dict__``, which frozen
        dataclasses permit) — status/watch loops touch every job's id on
        every poll, and the canonical-JSON + SHA-1 work dominates
        otherwise.
        """
        identity = {name: getattr(self, name) for name in _IDENTITY_FIELDS}
        digest = hashlib.sha1(canonical_json(identity).encode("utf-8"))
        return digest.hexdigest()[:12]

    @property
    def cell(self) -> tuple:
        """The aggregation cell this job belongs to (:data:`CELL_FIELDS`)."""
        return tuple(getattr(self, name) for name in CELL_FIELDS)

    def to_dict(self) -> dict:
        """Plain-JSON encoding of the job, including its derived ``job_id``."""
        d = {name: _canonical(getattr(self, name)) for name in _IDENTITY_FIELDS}
        d["campaign"] = self.campaign
        d["job_id"] = self.job_id
        if self.constraints:
            d["constraints"] = list(self.constraints)
        if self.priority != "low":
            d["priority"] = self.priority
        return d

    @classmethod
    def from_dict(cls, data: Mapping) -> "Job":
        """Rebuild a job from :meth:`to_dict` output (extra keys ignored)."""
        kwargs = {name: data[name] for name in _IDENTITY_FIELDS if name in data}
        kwargs["options"] = dict(kwargs.get("options", {}))
        kwargs["constraints"] = tuple(data.get("constraints", ()))
        kwargs["priority"] = data.get("priority", "low")
        return cls(campaign=data.get("campaign", ""), **kwargs)


@dataclass
class CampaignSpec:
    """A declarative grid of optimizer runs.

    Seeds come either from an explicit ``seeds`` list (used when paired
    comparisons must share initial states with legacy sweeps) or are spawned
    deterministically from ``base_seed`` via ``numpy.random.SeedSequence``
    when only ``n_seeds`` is given — independent, reproducible streams
    regardless of execution order or backend.

    The :data:`SCHEDULING_FIELDS` — ``constraints`` (capability names a
    worker must declare to run this campaign's jobs), ``priority``
    (``"high"``/``"low"`` queue band), ``weight`` (this tenant's share of
    dispatch slots under ``campaign serve``), and ``max_inflight`` (a
    per-tenant cap on concurrently dispatched jobs, ``None`` = unlimited)
    — are execution policy: they persist in ``spec.json`` but are excluded
    from job identity and :meth:`same_grid`, so editing them never orphans
    existing results.
    """

    name: str
    algorithms: Sequence[Union[str, Mapping, AlgorithmVariant]]
    functions: Sequence[str] = ("rosenbrock",)
    dims: Sequence[int] = (4,)
    sigma0s: Sequence[float] = (1000.0,)
    seeds: Optional[Sequence[int]] = None
    n_seeds: int = 8
    base_seed: int = 0
    noise_mode: str = "resample"
    tau: float = 1e-3
    walltime: float = 3e4
    max_steps: int = 600
    low: float = -5.0
    high: float = 5.0
    overrides: Sequence[Mapping] = ()
    constraints: Sequence[str] = ()
    priority: str = "low"
    weight: float = 1.0
    max_inflight: Optional[int] = None

    def __post_init__(self) -> None:
        self.algorithms = [AlgorithmVariant.from_any(a) for a in self.algorithms]
        if not self.algorithms:
            raise ValueError("campaign needs at least one algorithm variant")
        labels = [v.label for v in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"algorithm variant labels must be unique, got {labels}")
        if self.seeds is None and self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")
        self.constraints = tuple(sorted(str(c) for c in self.constraints))
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {self.priority!r}"
            )
        if not (float(self.weight) > 0):
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.max_inflight is not None and int(self.max_inflight) < 1:
            raise ValueError(
                f"max_inflight must be >= 1 or None, got {self.max_inflight}"
            )

    # -- seeds ------------------------------------------------------------

    def resolved_seeds(self) -> List[int]:
        """The per-job integer seeds, explicit or SeedSequence-spawned."""
        if self.seeds is not None:
            return [int(s) for s in self.seeds]
        import numpy as np

        root = np.random.SeedSequence(self.base_seed)
        return [int(child.generate_state(1, np.uint32)[0]) for child in root.spawn(self.n_seeds)]

    # -- expansion --------------------------------------------------------

    def expand(self) -> List[Job]:
        """Deterministic product expansion into :class:`Job` records."""
        jobs: List[Job] = []
        seeds = self.resolved_seeds()
        for variant, function, dim, sigma0, seed in itertools.product(
            self.algorithms, self.functions, self.dims, self.sigma0s, seeds
        ):
            job = Job(
                campaign=self.name,
                label=variant.label,
                algorithm=variant.algorithm,
                function=function,
                dim=int(dim),
                sigma0=float(sigma0),
                seed=int(seed),
                noise_mode=self.noise_mode,
                tau=float(self.tau),
                walltime=float(self.walltime),
                max_steps=int(self.max_steps),
                low=float(self.low),
                high=float(self.high),
                options=dict(variant.options),
                constraints=self.constraints,
                priority=self.priority,
            )
            jobs.append(self._apply_overrides(job))
        return jobs

    def _apply_overrides(self, job: Job) -> Job:
        """Apply per-job option overrides (`{"where": {...}, "options": {...}}`)."""
        options = dict(job.options)
        touched = False
        for rule in self.overrides:
            where = rule.get("where", {})
            if all(getattr(job, k, None) == v for k, v in where.items()):
                options.update(rule.get("options", {}))
                touched = True
        return replace(job, options=options) if touched else job

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON encoding of the grid (the ``spec.json`` payload)."""
        return {
            "name": self.name,
            "algorithms": [v.to_dict() for v in self.algorithms],
            "functions": list(self.functions),
            "dims": [int(d) for d in self.dims],
            "sigma0s": [float(s) for s in self.sigma0s],
            "seeds": None if self.seeds is None else [int(s) for s in self.seeds],
            "n_seeds": int(self.n_seeds),
            "base_seed": int(self.base_seed),
            "noise_mode": self.noise_mode,
            "tau": float(self.tau),
            "walltime": float(self.walltime),
            "max_steps": int(self.max_steps),
            "low": float(self.low),
            "high": float(self.high),
            "overrides": [_canonical(r) for r in self.overrides],
            "constraints": list(self.constraints),
            "priority": self.priority,
            "weight": float(self.weight),
            "max_inflight": None if self.max_inflight is None else int(self.max_inflight),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output (``version`` ignored)."""
        kwargs = dict(data)
        kwargs.pop("version", None)
        return cls(**kwargs)

    def save(self, path) -> Path:
        """Persist the spec as JSON.

        Rich (non-JSON) option values — e.g. a ``ConditionSet`` — would be
        stringified by the encoder and come back as useless strings on
        load, so persisting them is refused loudly; such specs work
        in-memory only (the benchmark harness path).
        """
        for variant in self.algorithms:
            if not _is_plain_json(variant.options):
                raise ValueError(
                    f"variant {variant.label!r} has non-JSON options "
                    f"{variant.options!r}; rich option objects cannot be "
                    f"persisted to a campaign directory — use an in-memory "
                    f"ResultStore, or express the option as plain JSON"
                )
        for rule in self.overrides:
            if not _is_plain_json(rule):
                raise ValueError(
                    f"override rule {rule!r} has non-JSON values and cannot "
                    f"be persisted to a campaign directory"
                )
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "CampaignSpec":
        """Load a spec saved by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def same_grid(self, other: "CampaignSpec") -> bool:
        """Whether two specs expand to the identical job set.

        Scheduling-policy fields (:data:`SCHEDULING_FIELDS`) are ignored:
        re-prioritizing or re-constraining a campaign leaves its grid —
        and therefore its resumability — intact.
        """
        def grid(spec: "CampaignSpec") -> dict:
            d = spec.to_dict()
            for name in SCHEDULING_FIELDS:
                d.pop(name, None)
            return d

        return canonical_json(grid(self)) == canonical_json(grid(other))
