"""Effect-signature inference and the effect-system rules (CG015–CG018).

The taint rules (CG010–CG013) answer "does hazard X reach sink Y?".
Sharding the control plane (ROADMAP item 1) needs the dual question
answered for *every* function: "what does this function do, including
everything it calls?"  That contract is an **effect signature** — a
subset of the effect alphabet

    ``{rng, clock, global_write, engine_emit, digest_write, io}``

whose lattice is subset inclusion with union as join.  Inference is a
fixpoint over the name-resolved call graph: each effect is seeded from
the per-function AST facts the module summaries already carry (RNG
draws, clock reads, module/class-level stores, engine ``at/after/every``
calls, digest ``record*`` calls, file/console I/O) and propagated
callee→caller with one reverse BFS per effect — equivalent to the
classic worklist fixpoint because the transfer function is monotone
union over a finite lattice, but with a witness chain for free.

On top of the inferred signatures sit four rules:

* **CG015** — shard safety: nothing reachable from a fleet/gateway/
  dispatch entry point may write shared module/class state;
* **CG016** — declared-vs-inferred drift against ``@effects(...)``
  declarations (:mod:`repro.util.effects`);
* **CG017** — architecture layering over the package DAG;
* **CG018** — hot-path purity for the Algorithm-1/rollout path.

:func:`render_effects` exports every non-pure or declared function's
signature as a sorted, deterministic JSON artifact (``effects.json`` in
CI) keyed by ``module::qualname`` — no absolute paths, so the bytes are
stable across machines and across runs in separate processes.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.lint.dataflow import (
    CallGraph,
    Witness,
    build_call_graph,
    entry_chain,
    reach_from,
    reach_taints,
    render_chain,
    witness_chain,
)
from repro.lint.project import ProjectContext, ProjectRule
from repro.lint.registry import ANALYZER_VERSION, register_project

__all__ = [
    "EFFECT_NAMES",
    "EffectInference",
    "infer_effects",
    "render_effects",
    "LAYERS",
    "shard_entry_points",
    "ShardSafetyRule",
    "EffectDeclarationRule",
    "LayeringRule",
    "HotPathPurityRule",
]

#: The effect alphabet in canonical report order.  Mirrors
#: :data:`repro.util.effects.EFFECTS`; the analyzer deliberately does
#: not import the runtime module (the lint package stays self-contained)
#: and a test pins the two tuples equal.
EFFECT_NAMES = (
    "rng",
    "clock",
    "global_write",
    "engine_emit",
    "digest_write",
    "io",
)

#: effect name -> FunctionSummary fields holding its seed sites.
_SEED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "rng": ("rng_draws", "stream_draws"),
    "clock": ("clock_reads",),
    "global_write": ("global_writes",),
    "engine_emit": ("engine_emits",),
    "digest_write": ("digest_writes",),
    "io": ("io_sites",),
}


class EffectInference:
    """Per-function effect signatures over one project call graph.

    Construction runs the whole inference (six reverse BFS passes);
    queries afterwards are dictionary lookups.  Use
    :func:`infer_effects` to share one instance across the CG015–CG018
    rules and the artifact writer within a run.
    """

    def __init__(self, project: ProjectContext,
                 graph: Optional[CallGraph] = None):
        self.project = project
        self.graph = graph if graph is not None else build_call_graph(project)
        self._witnesses: Dict[str, Dict[str, Witness]] = {}
        for effect in EFFECT_NAMES:
            fields = _SEED_FIELDS[effect]

            def first_site(node_id: str, fields=fields) -> Optional[str]:
                fn = self.project.function(node_id)
                for name in fields:
                    sites = getattr(fn, name)
                    if sites:
                        return sites[0].desc
                return None

            self._witnesses[effect] = reach_taints(
                project, self.graph, first_site,
            )

    def effects_of(self, node_id: str) -> FrozenSet[str]:
        """The inferred (transitive) signature of a function."""
        return frozenset(
            e for e in EFFECT_NAMES if node_id in self._witnesses[e]
        )

    def own_effects_of(self, node_id: str) -> Dict[str, str]:
        """Effects seeded *in the function itself*: effect -> first site."""
        fn = self.project.function(node_id)
        out: Dict[str, str] = {}
        for effect in EFFECT_NAMES:
            for name in _SEED_FIELDS[effect]:
                sites = getattr(fn, name)
                if sites:
                    out[effect] = sites[0].desc
                    break
        return out

    def witness(self, node_id: str, effect: str) -> Optional[Witness]:
        """Why ``node_id`` has ``effect`` (``None`` when it does not)."""
        return self._witnesses[effect].get(node_id)

    def chain(self, node_id: str, effect: str) -> List[str]:
        """Call chain from ``node_id`` down to the effect's direct site."""
        return witness_chain(self._witnesses[effect], node_id)


#: One inference per ProjectContext per run (the four rules and the
#: artifact writer all share it); weakly keyed so nothing outlives the
#: run.
_INFERENCE_MEMO: "WeakKeyDictionary[ProjectContext, EffectInference]" = (
    WeakKeyDictionary()
)


def infer_effects(project: ProjectContext,
                  graph: Optional[CallGraph] = None) -> EffectInference:
    """The (memoised) effect inference for a project context."""
    inference = _INFERENCE_MEMO.get(project)
    if inference is None or (graph is not None
                             and inference.graph is not graph):
        inference = EffectInference(project, graph)
        _INFERENCE_MEMO[project] = inference
    return inference


def render_effects(project: ProjectContext,
                   inference: Optional[EffectInference] = None) -> str:
    """The ``effects.json`` artifact text (sorted, newline-terminated).

    Lists every function whose inferred signature is non-empty or that
    carries an ``@effects`` declaration, keyed ``module::qualname``.
    Module names only — no absolute paths — so two runs, in one process
    or in two with different hash seeds, produce byte-identical output.
    """
    inference = inference if inference is not None else infer_effects(project)
    functions: Dict[str, dict] = {}
    total = 0
    for name in sorted(project.modules):
        mod = project.modules[name]
        for qual in sorted(mod.functions):
            total += 1
            node = f"{name}::{qual}"
            fn = mod.functions[qual]
            inferred = sorted(inference.effects_of(node),
                              key=EFFECT_NAMES.index)
            if not inferred and fn.declared_effects is None \
                    and not fn.hot_path:
                continue
            functions[node] = {
                "effects": inferred,
                "own": inference.own_effects_of(node),
                "declared": fn.declared_effects,
                "hot_path": fn.hot_path,
            }
    payload = {
        "schema": "cocg-effects/1",
        "analyzer_version": ANALYZER_VERSION,
        "effect_alphabet": list(EFFECT_NAMES),
        "counts": {
            "functions_total": total,
            "with_effects": sum(1 for f in functions.values()
                                if f["effects"]),
            "declared": sum(1 for f in functions.values()
                            if f["declared"] is not None),
            "hot_path": sum(1 for f in functions.values() if f["hot_path"]),
        },
        "functions": functions,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# CG015 — shard safety

#: Terminal names that make a ``cluster``/``serve`` function a shard
#: entry point by convention: ``FleetExperiment.run``, the gateway
#: ``pump``, cluster ``dispatch``/``submit``.  An explicit
#: ``@shard_entry`` decoration anywhere also creates an entry.
_SHARD_ENTRY_TERMINALS = frozenset({"run", "pump", "dispatch", "submit"})
_SHARD_ENTRY_PACKAGES = ("cluster", "serve")

#: Packages whose in-package writes are the sanctioned exceptions:
#: ``obs`` *owns* the metrics registry (that is where shared aggregates
#: are supposed to live), and ``lint`` mutates its rule registries at
#: import time only.
_SHARD_EXEMPT_PACKAGES = frozenset({"lint", "obs"})


def shard_entry_points(project: ProjectContext) -> List[str]:
    """Every shard entry point's node id (``module::qualname``), sorted.

    A function is an entry when it carries ``@shard_entry(...)`` or,
    under ``cluster``/``serve``, when its terminal name is ``run``,
    ``pump``, ``dispatch`` or ``submit``.
    """
    entries: List[str] = []
    for name in sorted(project.modules):
        mod = project.modules[name]
        for qual in sorted(mod.functions):
            if (mod.functions[qual].shard_entry is not None
                    or (mod.package in _SHARD_ENTRY_PACKAGES
                        and qual.split(".")[-1] in _SHARD_ENTRY_TERMINALS)):
                entries.append(f"{name}::{qual}")
    return entries


@register_project
class ShardSafetyRule(ProjectRule):
    """Code reachable from shard entry points must not write shared state.

    ROADMAP item 1 shards the control plane into N parallel fleets.  Two
    shards running the same code diverge the moment any function on a
    shard-executed path mutates module- or class-level state: the write
    interleaving becomes schedule-dependent and byte-identical replay
    (CGReplay) is gone.  This rule walks *forward* from every shard
    entry point — a function decorated ``@shard_entry(...)``, plus the
    conventional ``run``/``pump``/``dispatch``/``submit`` terminals
    under ``cluster``/``serve`` — and flags each reachable function that stores
    into module- or class-level bindings, printing the entry-to-write
    call chain.  Writes inside ``obs`` (the metrics registry — the
    sanctioned home for shared aggregates) and ``lint`` (import-time
    rule registration) are exempt.

    Fix: move the state onto an instance owned by the shard (``self``),
    pass it explicitly, or record through the metrics registry
    (``repro.obs``).  ``# lint: disable=CG015`` only for state that is
    provably shard-local.
    """

    rule_id = "CG015"
    name = "shard-unsafe-global-write"
    description = (
        "function reachable from a fleet/gateway/dispatch entry point "
        "writes module- or class-level state"
    )

    def check(self) -> None:
        inference = infer_effects(self.project)
        parents = reach_from(inference.graph,
                             shard_entry_points(self.project))
        for node in sorted(parents):
            mod = self.project.module_of(node)
            if mod.package in _SHARD_EXEMPT_PACKAGES:
                continue
            fn = self.project.function(node)
            if not fn.global_writes:
                continue
            chain = entry_chain(parents, node)
            entry = chain[0].replace("::", ":")
            for site in fn.global_writes:
                self.report(
                    mod, site.line, site.col,
                    f"{site.desc} in {fn.qualname}() is reachable from "
                    f"shard entry point {entry} "
                    f"(chain: {render_chain(chain)}); shard-parallel "
                    f"fleets must not share mutable module/class state -- "
                    f"keep it on an instance or in the metrics registry",
                )


# ---------------------------------------------------------------------------
# CG016 — declared vs inferred drift


def _fmt(effects) -> str:
    ordered = sorted(effects, key=EFFECT_NAMES.index)
    return "{" + ", ".join(ordered) + "}" if ordered else "pure"


@register_project
class EffectDeclarationRule(ProjectRule):
    """``@effects(...)`` declarations must match the inferred signature.

    A declaration is a contract: callers (and the CG018 hot-path rule)
    rely on it instead of re-deriving the transitive behaviour.  The
    contract rots in two directions — a function grows an effect its
    decorator does not admit (undeclared), or keeps declaring one the
    analyzer can no longer find (stale).  Both directions error, with
    the witness call chain for undeclared effects.

    Fix: for an undeclared effect, either add it to ``@effects(...)`` or
    break the call edge the chain shows; for a stale one, delete the
    name from the decorator.  The inference is conservative (name-
    resolved call graph), so a spurious edge can be cut by renaming an
    over-generic method, or suppressed with ``# lint: disable=CG016`` on
    the ``def`` line.
    """

    rule_id = "CG016"
    name = "effect-declaration-drift"
    description = (
        "@effects declaration disagrees with the inferred effect signature"
    )

    def check(self) -> None:
        inference = infer_effects(self.project)
        for name in sorted(self.project.modules):
            mod = self.project.modules[name]
            for qual in sorted(mod.functions):
                fn = mod.functions[qual]
                if fn.declared_effects is None:
                    continue
                node = f"{name}::{qual}"
                inferred = inference.effects_of(node)
                declared = frozenset(fn.declared_effects)
                for effect in sorted(inferred - declared,
                                     key=EFFECT_NAMES.index):
                    witness = inference.witness(node, effect)
                    chain = inference.chain(node, effect)
                    self.report(
                        mod, fn.line, 1,
                        f"{fn.qualname}() declares {_fmt(declared)} but the "
                        f"analyzer infers undeclared '{effect}': "
                        f"{witness.target} "
                        f"(chain: {render_chain(chain)}); add '{effect}' to "
                        f"@effects(...) or break the call edge",
                    )
                for effect in sorted(declared - inferred,
                                     key=EFFECT_NAMES.index):
                    self.report(
                        mod, fn.line, 1,
                        f"{fn.qualname}() declares effect '{effect}' the "
                        f"analyzer cannot find; drop the stale name from "
                        f"@effects(...)",
                    )


# ---------------------------------------------------------------------------
# CG017 — architecture layering


#: package -> layer.  An import may only point at the same or a lower
#: layer; root modules (``cli``, ``config`` — package ``""``) are the
#: composition root and exempt.
LAYERS: Dict[str, int] = {
    "util": 0,
    "obs": 1, "mlkit": 1, "streaming": 1, "lint": 1,
    "platform_": 2,
    "sim": 3, "games": 3,
    "core": 4,
    "baselines": 5, "workloads": 5, "analysis": 5,
    "cluster": 6, "faults": 6, "serve": 6, "trace": 6,
    "fleet": 7,
}

_DAG_TEXT = (
    "util < obs/mlkit/streaming/lint < platform_ < sim/games < core "
    "< baselines/workloads/analysis < cluster/faults/serve/trace "
    "< fleet"
)


def _import_package(imported: str) -> Optional[str]:
    """Top-level ``repro`` subpackage an import statement targets."""
    if imported == "repro" or imported.startswith("repro."):
        parts = imported.split(".")
        return parts[1] if len(parts) > 1 else None
    return None


@register_project
class LayeringRule(ProjectRule):
    """Package imports must follow the architecture DAG (no back-edges).

    The layering is ``util < obs/mlkit/streaming/lint < platform_ <
    sim/games < core < baselines/workloads/analysis <
    cluster/faults/serve/trace``: ``sim`` can never import ``serve``,
    and shard-local code can never reach region-global singletons by
    importing upward.  ``obs`` sits low on purpose — observability must
    never import the packages it observes (hooks are injected downward),
    which is what keeps a shard's metrics registry free of back-edges.
    Same-layer imports are allowed (``cluster``/``faults``/``serve``/
    ``trace`` are interdependent by design); imports under ``if TYPE_CHECKING:`` are
    erased at runtime and exempt; root modules (``cli`` — the
    composition root) may import anything.

    Fix: invert the dependency — move the shared type down a layer, or
    inject the higher-layer object from the composition root.  Use a
    ``TYPE_CHECKING`` guard when only an annotation needs the name.
    """

    rule_id = "CG017"
    name = "layering-violation"
    description = "module imports a package from a higher architecture layer"

    def check(self) -> None:
        for name in sorted(self.project.modules):
            mod = self.project.modules[name]
            src_layer = LAYERS.get(mod.package)
            if src_layer is None:
                continue
            for imported in sorted(mod.imported_modules):
                pkg = _import_package(imported)
                dst_layer = LAYERS.get(pkg) if pkg is not None else None
                if dst_layer is None or dst_layer <= src_layer:
                    continue
                if imported in mod.type_only_imports:
                    continue
                self.report(
                    mod, mod.import_lines.get(imported, 1), 1,
                    f"'{mod.module}' (layer {src_layer}: {mod.package}) "
                    f"imports '{imported}' from higher layer {dst_layer} "
                    f"({pkg}); the architecture DAG is {_DAG_TEXT} -- "
                    f"invert the dependency or inject it from the "
                    f"composition root",
                )


# ---------------------------------------------------------------------------
# CG018 — hot-path purity


@register_project
class HotPathPurityRule(ProjectRule):
    """``@effects(..., hot_path=True)`` functions must be pure-but-RNG.

    ROADMAP item 2 vectorises the Algorithm-1/rollout path (a numpy or
    compiled kernel swap).  That swap is behaviour-preserving only if
    the path is referentially transparent up to its declared RNG
    stream: no clock reads, no shared-state writes, no engine emission,
    no digest writes, no I/O.  This rule holds every function marked
    ``hot_path=True`` to exactly that — its inferred signature must be
    a subset of its declared ``rng`` (and ``rng`` itself must be
    declared to be allowed).

    Fix: hoist the offending effect out of the hot path (record results
    after the kernel returns; pass drawn samples in), or — if the
    function genuinely is not hot-path — drop ``hot_path=True``.
    """

    rule_id = "CG018"
    name = "hot-path-impure"
    description = (
        "hot-path function has effects beyond its declared RNG stream"
    )

    def check(self) -> None:
        inference = infer_effects(self.project)
        for name in sorted(self.project.modules):
            mod = self.project.modules[name]
            for qual in sorted(mod.functions):
                fn = mod.functions[qual]
                if not fn.hot_path:
                    continue
                node = f"{name}::{qual}"
                declared = frozenset(fn.declared_effects or [])
                bad_declared = declared - {"rng"}
                for effect in sorted(bad_declared,
                                     key=EFFECT_NAMES.index):
                    self.report(
                        mod, fn.line, 1,
                        f"hot-path {fn.qualname}() declares '{effect}'; a "
                        f"hot-path function may declare at most 'rng'",
                    )
                allowed = declared & {"rng"}
                inferred = inference.effects_of(node)
                # bad declarations were already reported above; don't
                # report the same effect twice when it is also inferred.
                for effect in sorted(inferred - allowed - bad_declared,
                                     key=EFFECT_NAMES.index):
                    witness = inference.witness(node, effect)
                    chain = inference.chain(node, effect)
                    hint = (
                        "declare it with @effects('rng', hot_path=True)"
                        if effect == "rng"
                        else "hoist the effect out of the hot path"
                    )
                    self.report(
                        mod, fn.line, 1,
                        f"hot-path {fn.qualname}() has effect '{effect}': "
                        f"{witness.target} "
                        f"(chain: {render_chain(chain)}); {hint}",
                    )
