"""Decision-tree engine for use-case-driven metric selection.

Trees are data shipped with the package (trees/*.json), one per quality
dimension plus the two shared subtrees for distribution metrics and
correlation coefficients. A use-case profile answers the tree questions;
traversal yields the selected metrics together with the full path taken,
so every choice stays documented.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from importlib import resources
from typing import Any, Callable, Mapping

from . import cards as _cards
from . import registry as _registry
from .datamodel import reject_json_constant

SUBTREE_NAMES = ("distribution_metrics", "correlation_coefficients")


class SelectionError(ValueError):
    """Unanswered question in strict mode, or an answer outside the closed set."""


class TreeFormatError(ValueError):
    """A tree file violates the structural rules."""


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    answers: tuple[tuple[str, str], ...]
    question_key: str


@dataclass(frozen=True)
class Leaf:
    id: str
    metrics: tuple[str, ...]
    reason: str = ""


@dataclass(frozen=True)
class SubtreeRef:
    id: str
    subtree: str
    context: str


Node = Question | Leaf | SubtreeRef


@dataclass(frozen=True)
class DecisionTree:
    name: str
    root: str
    nodes: Mapping[str, Node]

    def node(self, node_id: str) -> Node:
        return self.nodes[node_id]


@dataclass(frozen=True)
class Expansion:
    subtree: str
    context: str
    metrics: tuple[str, ...]


@dataclass(frozen=True)
class DimensionSelection:
    dimension: str
    metrics: tuple[str, ...]
    trace: tuple[tuple[str, str], ...]
    expansions: tuple[Expansion, ...] = ()
    unanswered: tuple[str, ...] = ()
    recommended: tuple[str, ...] = ()
    reasons: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "dimension": self.dimension,
            "metrics": list(self.metrics),
            "trace": [{"question": q, "answer": a} for q, a in self.trace],
            "expansions": [
                {"subtree": e.subtree, "context": e.context, "metrics": list(e.metrics)}
                for e in self.expansions
            ],
            "unanswered": list(self.unanswered),
            "recommended": list(self.recommended),
            "reasons": list(self.reasons),
        }


@dataclass(frozen=True)
class SelectionResult:
    selections: tuple[DimensionSelection, ...]
    profile: Mapping[str, Any] = field(default_factory=dict)

    def for_dimension(self, dimension: str) -> DimensionSelection:
        for s in self.selections:
            if s.dimension == dimension:
                return s
        raise KeyError(dimension)

    def metrics(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(m for s in self.selections for m in s.metrics))


def _norm(text: str) -> str:
    return " ".join(str(text).strip().lower().replace("-", " ").replace("_", " ").split())


def parse_tree(doc: Mapping[str, Any], known_metrics: set[str] | None = None) -> DecisionTree:
    """Build and validate a DecisionTree from its JSON document."""
    name = doc["dimension"]
    nodes: dict[str, Node] = {}

    def add(node_id: str, node: Node) -> None:
        if node_id in nodes:
            raise TreeFormatError(f"{name}: duplicate node id {node_id!r}")
        nodes[node_id] = node

    for raw in doc.get("nodes", ()):
        add(
            raw["id"],
            Question(
                id=raw["id"],
                text=raw["text"],
                answers=tuple((label, child) for label, child in raw["answers"].items()),
                question_key=raw.get("question", raw["id"]),
            ),
        )
    for raw in doc.get("leaves", ()):
        if "subtree" in raw:
            if raw["subtree"] not in SUBTREE_NAMES:
                raise TreeFormatError(f"{name}: unknown subtree {raw['subtree']!r}")
            if name in SUBTREE_NAMES:
                raise TreeFormatError(f"{name}: subtrees must not reference subtrees")
            add(raw["id"], SubtreeRef(id=raw["id"], subtree=raw["subtree"], context=raw.get("context", "")))
        else:
            add(raw["id"], Leaf(id=raw["id"], metrics=tuple(raw["metrics"]), reason=raw.get("reason", "")))

    root = doc["root"]
    if root not in nodes:
        raise TreeFormatError(f"{name}: root {root!r} is not a node")
    for node in nodes.values():
        if isinstance(node, Question):
            if not node.answers:
                raise TreeFormatError(f"{name}: question {node.id!r} has no answers")
            for label, child in node.answers:
                if child not in nodes:
                    raise TreeFormatError(f"{name}: answer {label!r} points to missing node {child!r}")
        elif isinstance(node, Leaf) and known_metrics is not None:
            for m in node.metrics:
                if m not in known_metrics:
                    raise TreeFormatError(f"{name}: leaf {node.id!r} names unknown metric {m!r}")
    return DecisionTree(name=name, root=root, nodes=nodes)


def load_tree(path) -> DecisionTree:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_constant=reject_json_constant)
    known = {c.id for c in _registry.all_cards()}
    return parse_tree(doc, known)


@lru_cache(maxsize=1)
def builtin_trees() -> Mapping[str, DecisionTree]:
    """All 16 shipped trees: 14 dimensions plus the two shared subtrees."""
    known = {c.id for c in _registry.all_cards()}
    trees: dict[str, DecisionTree] = {}
    base = resources.files("dqeval").joinpath("trees")
    for name in tuple(_cards.DIMENSIONS) + SUBTREE_NAMES:
        doc = json.loads(base.joinpath(f"{name}.json").read_text(encoding="utf-8"))
        if doc["dimension"] != name:
            raise TreeFormatError(f"tree file {name}.json declares dimension {doc['dimension']!r}")
        trees[name] = parse_tree(doc, known)
    return trees


def _profile_answer(profile: Mapping[str, Any], dimension: str, key: str):
    scoped = f"{dimension}:{key}"
    if scoped in profile:
        return profile[scoped]
    return profile.get(key)


def _collect_below(tree: DecisionTree, node: Node) -> tuple[str, ...]:
    """All leaf metrics reachable below a node, left to right."""
    found: list[str] = []

    def walk(n: Node) -> None:
        if isinstance(n, Leaf):
            found.extend(n.metrics)
        elif isinstance(n, Question):
            for _, child in n.answers:
                walk(tree.node(child))

    walk(node)
    return tuple(dict.fromkeys(found))


# (dimension, question) -> an answer label, a list of them, or None to skip
Ask = Callable[[str, Question], Any]


def traverse(
    tree: DecisionTree,
    profile: Mapping[str, Any],
    mode: str = "partial",
    subtrees: Mapping[str, DecisionTree] | None = None,
    dimension: str | None = None,
    ask: Ask | None = None,
) -> DimensionSelection:
    """Walk one tree guided by the profile.

    strict mode errors on any unanswered question on the active path;
    partial mode stops there, reports the question and flags everything
    below it as recommended. Profile keys may be dimension-scoped
    ("homogeneity:dist_aspect") to answer shared-subtree questions
    differently per dimension. List-valued answers follow every matching
    branch, in label order.

    ask, when given, is called for each question on the active path that
    the profile leaves open; a non-None answer is stored in the profile
    (which must then be a dict) under "dimension:key" for a shared-subtree
    question and the bare key otherwise, so later questions reuse it.
    """
    if mode not in ("strict", "partial"):
        raise SelectionError(f"unknown traversal mode {mode!r}")
    dim = dimension or tree.name
    metrics: list[str] = []
    trace: list[tuple[str, str]] = []
    expansions: list[Expansion] = []
    unanswered: list[str] = []
    recommended: list[str] = []
    reasons: list[str] = []

    def walk(node_id: str) -> None:
        node = tree.node(node_id)
        if isinstance(node, Leaf):
            if node.metrics:
                metrics.extend(node.metrics)
            elif node.reason:
                reasons.append(node.reason)
            return
        if isinstance(node, SubtreeRef):
            if subtrees is None:
                expansions.append(Expansion(node.subtree, node.context, ()))
                return
            frag = traverse(subtrees[node.subtree], profile, mode=mode, dimension=dim, ask=ask)
            expansions.append(Expansion(node.subtree, node.context, frag.metrics))
            metrics.extend(frag.metrics)
            trace.extend(frag.trace)
            unanswered.extend(frag.unanswered)
            recommended.extend(frag.recommended)
            reasons.extend(frag.reasons)
            return
        labels = [label for label, _ in node.answers]
        answer = _profile_answer(profile, dim, node.question_key)
        if answer is None and ask is not None:
            answer = ask(dim, node)
            if answer is not None:
                key = f"{dim}:{node.question_key}" if tree.name in SUBTREE_NAMES else node.question_key
                profile[key] = answer  # type: ignore[index]
        if answer is None:
            if mode == "strict":
                raise SelectionError(
                    f"question {node.question_key!r} is unanswered; valid answers: {labels}"
                )
            unanswered.append(node.question_key)
            recommended.extend(_collect_below(tree, node))
            return
        tokens = [answer] if isinstance(answer, str) else answer
        if not isinstance(tokens, (list, tuple)) or not all(isinstance(t, str) for t in tokens):
            raise SelectionError(f"answer to {node.question_key!r} must be a string or list of strings, not {answer!r}")
        normed = {_norm(label) for label in labels}
        for tok in tokens:
            if _norm(tok) not in normed:
                raise SelectionError(
                    f"unknown answer {tok!r} for question {node.question_key!r}; valid answers: {labels}"
                )
        wanted = {_norm(tok) for tok in tokens}
        for label, child in node.answers:
            if _norm(label) in wanted:
                trace.append((node.question_key, label))
                walk(child)

    walk(tree.root)
    return DimensionSelection(
        dimension=dim,
        metrics=tuple(dict.fromkeys(metrics)),
        trace=tuple(trace),
        expansions=tuple(expansions),
        unanswered=tuple(dict.fromkeys(unanswered)),
        recommended=tuple(dict.fromkeys(recommended)),
        reasons=tuple(reasons),
    )


def select_all(
    profile: Mapping[str, Any], mode: str = "partial", ask: Ask | None = None
) -> SelectionResult:
    """Traverse every dimension tree, expanding shared subtrees in place.

    Per-dimension gaps (unanswered questions, prerequisite leaves such as
    a single annotator) are recorded in the fragments, never raised. ask
    (see traverse) fills open questions; the result's profile holds the
    answers it gave, the caller's profile is left as it was.
    """
    trees = builtin_trees()
    subtrees = {name: trees[name] for name in SUBTREE_NAMES}
    answers = dict(profile)
    selections = []
    for dim in _cards.DIMENSIONS:
        selections.append(traverse(trees[dim], answers, mode=mode, subtrees=subtrees, ask=ask))
    return SelectionResult(selections=tuple(selections), profile=answers)


def _library_version() -> str:
    """The installed distribution's version; 0.0.0 when run from a source tree."""
    from importlib import metadata

    try:
        return metadata.version("artifact")
    except metadata.PackageNotFoundError:
        return "0.0.0"


def rationale_document(
    sel: SelectionResult,
    params: Mapping[str, Any] | None = None,
    timestamp: str | None = None,
) -> dict[str, Any]:
    """Serializable record of why each metric was chosen.

    Embeds the profile, every (question, answer) pair consumed, subtree
    expansions with their context notes, configured parameters and the
    library version. JSON round-trips to an identical document.
    """
    return {
        "library_version": _library_version(),
        "generated_at": timestamp
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "profile": dict(sel.profile),
        "parameters": dict(params or {}),
        "selections": [s.as_dict() for s in sel.selections],
    }
