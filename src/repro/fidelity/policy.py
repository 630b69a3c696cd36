"""The service-facing ``fidelity`` policy: payload in, report out.

``POST /solve`` (and ``/jobs`` specs) accept an optional ``fidelity``
object; when present, the solve is routed here instead of the
discard-only solver.  ``POST /score`` accepts the same object with a
``chosen`` assignment to evaluate.  The policy document:

``{"levels": [[0.85, 0.45], [0.6, 0.22]],  # (fidelity, size factor)
   "tiers": ["q85", "q60"],                # optional labels
   "catalog": {...},                       # explicit VariantCatalog doc
   "mode": "auto" | "uc" | "cb",           # default auto (best of both)
   "upgrade": true,                        # residual-budget upgrade pass
   "budgets": [1e6, 2e6],                  # optional → frontier sweep
   "compare": true}                        # include discard baseline

Catalog resolution order: explicit ``catalog`` doc, then ``levels``,
then a catalog attached to the instance itself
(``PARInstance.variants``, e.g. uploaded with a tenant archive), then
the :data:`repro.fidelity.catalog.DEFAULT_TIERS` menu.  Malformed
policies raise :class:`ValidationError`, which the service maps to a
structured 422.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Any, Callable, Dict, Optional

from repro.core.greedy import lazy_greedy
from repro.core.instance import PARInstance, as_ids
from repro.errors import ValidationError
from repro.fidelity.catalog import VariantCatalog
from repro.fidelity.frontier import budget_frontier
from repro.fidelity.solver import fidelity_main, fidelity_score
from repro.obs import probes as _obs_probes

__all__ = [
    "resolve_catalog",
    "execute_fidelity_payload",
    "score_fidelity_payload",
]

_POLICY_KEYS = frozenset(
    ("catalog", "levels", "tiers", "mode", "upgrade", "budgets", "compare", "chosen")
)
_MODES = {"auto": None, "uc": "UC", "cb": "CB"}


def _check_policy(policy: Any) -> Dict[str, Any]:
    if not isinstance(policy, dict):
        raise ValidationError("fidelity policy must be an object")
    unknown = set(policy) - _POLICY_KEYS
    if unknown:
        raise ValidationError(
            f"unknown fidelity policy keys: {sorted(unknown)}"
        )
    if policy.get("mode", "auto") not in _MODES:
        raise ValidationError(
            f"fidelity mode must be one of {sorted(_MODES)}, "
            f"got {policy.get('mode')!r}"
        )
    if policy.get("catalog") is not None and policy.get("levels") is not None:
        raise ValidationError(
            "fidelity policy: 'catalog' and 'levels' are mutually exclusive"
        )
    return policy


def resolve_catalog(
    instance: PARInstance, policy: Dict[str, Any]
) -> VariantCatalog:
    """Resolve the variant catalog a policy refers to (see module doc)."""
    if policy.get("catalog") is not None:
        catalog = VariantCatalog.from_dict(policy["catalog"])
    elif policy.get("levels") is not None:
        levels = policy["levels"]
        if not isinstance(levels, (list, tuple)):
            raise ValidationError("fidelity levels must be a list of pairs")
        try:
            pairs = [(float(f), float(s)) for f, s in levels]
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"malformed fidelity levels: {exc!r}"
            ) from exc
        catalog = VariantCatalog.from_levels(
            instance.costs, pairs, tiers=policy.get("tiers")
        )
    elif getattr(instance, "variants", None) is not None:
        catalog = instance.variants
    else:
        catalog = VariantCatalog.default(instance.costs)
    if catalog.n_photos != instance.n:
        raise ValidationError(
            f"fidelity catalog covers {catalog.n_photos} photos, "
            f"instance has {instance.n}"
        )
    return catalog


def _chosen_records(
    catalog: VariantCatalog, chosen: Dict[int, int]
) -> list:
    """Per-photo JSON records of an exclusive assignment, sorted by photo."""
    return [
        {
            "photo": int(p),
            "variant": int(vid - catalog.indptr[p]),
            "tier": catalog.tier[vid],
            "fidelity": float(catalog.fidelity[vid]),
            "cost": float(catalog.cost[vid]),
        }
        for p, vid in sorted(chosen.items())
    ]


def execute_fidelity_payload(
    policy: Any,
    *,
    instance: PARInstance,
    checkpoint_every: Optional[int] = None,
    checkpoint_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    resume_from: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run the fidelity policy for a solve payload; return the wire doc.

    With ``budgets`` the response is a frontier sweep
    (``algorithm: "fidelity-frontier"``); otherwise a single exclusive
    solve at the instance budget with the per-photo chosen variants and
    the quality report.  The checkpoint hooks reach the single solve
    exactly as they reach a plain one; sweeps ignore them (each member
    solve is short, a retry re-runs the sweep).
    """
    policy = _check_policy(policy)
    if policy.get("chosen") is not None:
        raise ValidationError(
            "fidelity policy: 'chosen' is a /score input, not a /solve one"
        )
    catalog = resolve_catalog(instance, policy)
    upgrade = bool(policy.get("upgrade", True))
    mode = _MODES[policy.get("mode", "auto")]

    if policy.get("budgets") is not None:
        budgets = policy["budgets"]
        if not isinstance(budgets, (list, tuple)) or not budgets:
            raise ValidationError(
                "fidelity budgets must be a non-empty list"
            )
        doc = budget_frontier(
            instance,
            catalog,
            [float(b) for b in budgets],
            upgrade=upgrade,
            compare=bool(policy.get("compare", True)),
        )
        doc["algorithm"] = "fidelity-frontier"
        return doc

    hooks = {
        "checkpoint_every": checkpoint_every,
        "checkpoint_sink": checkpoint_sink,
        "resume_from": resume_from,
    }
    t0 = _perf_counter()
    if mode is None:
        run = fidelity_main(instance, catalog, upgrade=upgrade, **hooks)
    else:
        run = lazy_greedy(instance, mode, catalog=catalog, upgrade=upgrade, **hooks)
    elapsed = _perf_counter() - t0
    quality = catalog.describe_selection(run.chosen)
    _obs = _obs_probes.active()
    if _obs is not None:
        _obs.fidelity_mean_fidelity.set(quality["mean_fidelity"])
    return {
        "algorithm": "fidelity",
        "mode": run.mode,
        "selection": sorted(int(p) for p in run.chosen),
        "chosen": _chosen_records(catalog, run.chosen),
        "value": run.value,
        "cost": run.cost,
        "budget": instance.budget,
        "budget_utilisation": run.cost / instance.budget,
        "evaluations": run.evaluations,
        "upgrades": len(run.upgrades),
        "quality": quality,
        "elapsed_seconds": elapsed,
    }


def _chosen_id(value: Any, field: str) -> int:
    """One ``chosen`` record's ``field``, read by the instance decoder's
    id rule (``1.0`` is ``1``; ``1.5`` and ``"1"`` are refused)."""
    ids = as_ids(value, f"chosen {field!r}")
    if ids.ndim != 0:
        raise ValidationError(f"chosen {field!r} must be one integer")
    return int(ids)


def score_fidelity_payload(
    policy: Any, *, instance: PARInstance
) -> Dict[str, Any]:
    """Score an explicit exclusive assignment (the ``/score`` path).

    ``policy["chosen"]`` lists ``{"photo": id, "variant": local_slot}``
    records (slot 0 = original); photos absent from the list are
    dropped.  Returns value, cost, feasibility, and the quality report.
    """
    policy = _check_policy(policy)
    records = policy.get("chosen")
    if not isinstance(records, (list, tuple)):
        raise ValidationError(
            "fidelity score needs a 'chosen' list of {photo, variant}"
        )
    catalog = resolve_catalog(instance, policy)
    chosen: Dict[int, int] = {}
    for rec in records:
        if not isinstance(rec, dict):
            raise ValidationError("each chosen entry must be an object")
        if "photo" not in rec:
            raise ValidationError("each chosen entry needs a 'photo'")
        p = _chosen_id(rec["photo"], "photo")
        slot = _chosen_id(rec.get("variant", 0), "variant")
        if not 0 <= p < instance.n:
            raise ValidationError(f"chosen photo {p} outside 0..{instance.n - 1}")
        if p in chosen:
            raise ValidationError(
                f"photo {p} chosen twice; at most one variant per photo"
            )
        width = int(catalog.indptr[p + 1] - catalog.indptr[p])
        if not 0 <= slot < width:
            raise ValidationError(
                f"photo {p} has {width} variants; slot {slot} does not exist"
            )
        chosen[p] = int(catalog.indptr[p]) + slot
    missing = instance.retained - set(chosen)
    cost = float(sum(catalog.cost[vid] for vid in chosen.values()))
    feasible = not missing and cost <= instance.budget * (1 + 1e-12)
    return {
        "value": fidelity_score(instance, catalog, chosen),
        "cost": cost,
        "budget": instance.budget,
        "feasible": feasible,
        "missing_retained": sorted(int(p) for p in missing),
        "quality": catalog.describe_selection(chosen),
    }
