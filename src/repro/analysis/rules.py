"""The asblint rule catalogue.

Each rule has a stable id (used in ``# asblint: ignore[<id>]`` pragmas and
the JSON report), a short name, and a one-line description.  All rules are
*must*-rules: they fire only when the abstract-interval evaluation proves
the bad outcome on every execution consistent with the abstraction —
a dynamic-label system has too many legitimate maybe-flows for a linter
to warn on possibilities.

- **ASB001 never-pass**: the Figure 4 delivery check
  ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR`` cannot pass: the lower bound of the
  effective send label exceeds the upper bound of the right-hand side at
  some handle (usually because ``v=`` pins V below taint the sender
  provably carries, or the target port's label is still the closed
  ``{p 0}``).  The kernel will drop the message silently, forever.

- **ASB002 taint-creep**: a send provably carries taint above the
  default send level (the program raised its own label with
  ``ChangeLabel(send=...)``) but passes no ``cs=``: every receiver is
  contaminated implicitly.  The paper's discipline is that
  contamination crossing a trust boundary is spelled out as CS (or
  excluded with ``v=``); implicit creep is how one mislabeled
  worker quietly taints a whole service.

- **ASB003 declassify-no-star**: a decontaminating label — ``ds=``
  below 3, ``dr=`` above ⋆, or a ``ChangeLabel(raise_receive=...)`` —
  at a handle for which the process provably does *not* hold ⋆.  Figure 4's requirements (2)/(3)
  make the kernel drop the send (or fault the change_label); since the
  drop is silent, this is the classic "why does my grant never arrive"
  bug.

- **ASB004 handle-leak**: a port created by this program is embedded in
  a message payload while its port label is still the closed ``{p 0}``
  minted by ``new_port`` and no send has granted ``p ⋆``/``p 0`` to
  anyone: the receiver learns the handle but can never send to it.
  Every reply routed there is silently dropped — a dead drop that looks
  exactly like packet loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

TOOLING = "ASB000"
NEVER_PASS = "ASB001"
TAINT_CREEP = "ASB002"
DECLASSIFY_NO_STAR = "ASB003"
HANDLE_LEAK = "ASB004"


@dataclass(frozen=True)
class Rule:
    id: str
    name: str
    summary: str


RULES: Tuple[Rule, ...] = (
    Rule(
        NEVER_PASS,
        "never-pass",
        "send can never pass the Figure 4 delivery check; the kernel will "
        "drop it silently on every execution",
    ),
    Rule(
        TAINT_CREEP,
        "taint-creep",
        "send provably carries self-raised taint but no explicit cs=; the "
        "receiver is contaminated implicitly",
    ),
    Rule(
        DECLASSIFY_NO_STAR,
        "declassify-no-star",
        "decontamination (DS < 3 / DR > * / raise_receive) at a handle the "
        "process provably holds no * for; dropped or faulted at runtime",
    ),
    Rule(
        HANDLE_LEAK,
        "handle-leak",
        "port handle embedded in a payload while its label is still the "
        "closed {p 0} and no * grant accompanies it; receivers can never "
        "send to it",
    ),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}
RULES_BY_NAME: Dict[str, Rule] = {rule.name: rule for rule in RULES}

#: ASB000 is the tooling pseudo-rule: the file does not parse, or a pragma
#: names a rule that does not exist.  It is resolvable (so it can itself be
#: suppressed or selected) but not part of the label-flow catalogue above.
TOOLING_RULE = Rule(
    TOOLING,
    "tooling",
    "file does not parse, or an asblint pragma names an unknown rule",
)
RULES_BY_ID[TOOLING] = TOOLING_RULE
RULES_BY_NAME[TOOLING_RULE.name] = TOOLING_RULE


def resolve_rule(key: str) -> Optional[Rule]:
    """Look a rule up by id (``ASB003``) or name (``declassify-no-star``)."""
    return RULES_BY_ID.get(key.upper()) or RULES_BY_NAME.get(key.lower())


@dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str          # rule id, e.g. "ASB001"
    message: str
    function: str = ""  # qualified name of the program generator
    #: asbcheck topology edges this program's sends become (filled in by
    #: ``repro.analysis.check.link_lint_findings``).
    related_edges: Tuple[str, ...] = ()

    @property
    def rule_name(self) -> str:
        rule = RULES_BY_ID.get(self.rule)
        return rule.name if rule else self.rule

    def format(self) -> str:
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule}[{self.rule_name}] {self.message}"
        )
        if self.related_edges:
            text += f"  [feeds edge {', '.join(self.related_edges)}]"
        return text

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "rule_name": self.rule_name,
            "function": self.function,
            "message": self.message,
        }
        if self.related_edges:
            out["related_edges"] = list(self.related_edges)
        return out


@dataclass
class FileReport:
    """Diagnostics for one analyzed file, plus suppression bookkeeping."""

    path: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Diagnostic] = field(default_factory=list)
    programs: List[str] = field(default_factory=list)
    #: Send sites the rule catalogue was evaluated at.
    sends_checked: int = 0
    #: Pragmas that suppressed nothing (likely stale), (line, rule-or-"").
    unused_pragmas: List[Tuple[int, str]] = field(default_factory=list)
