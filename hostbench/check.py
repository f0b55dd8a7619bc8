"""Output checks.  Every operation a workload attempts is checked here;
a failed check counts in ``failed_share`` and makes the command exit
non-zero.  The checks know the *expected* outputs from the generated
inputs alone, never from the program under test."""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Sequence, Tuple

HEADER_BYTES = 133
ECHO_BODY = "x" * 11
MAX_MESSAGES = 20


class Checker:
    """Counts attempted and failed operations; keeps the first messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str, ops: int = 1) -> bool:
        """Record *ops* operations that passed or failed together."""
        self.attempted += ops
        if not ok:
            self.failed += ops
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    # -- site replies -----------------------------------------------------

    def echo_reply(self, user: str, ok: bool, payload: Any) -> None:
        good = (
            ok
            and isinstance(payload, dict)
            and len(payload.get("headers", "")) == HEADER_BYTES
            and payload.get("body") == ECHO_BODY
        )
        self.expect(good, f"echo reply for {user}: {_brief(payload)}")

    def echo_outcome(self, user: str, status: Any, body: Any) -> None:
        """A cluster outcome row (the shard strips headers)."""
        good = status not in (403, 404, 503) and body == ECHO_BODY
        self.expect(good, f"cluster echo for {user}: status={status} body={_brief(body)}")

    def add_reply(self, user: str, ok: bool, payload: Any) -> bool:
        good = ok and isinstance(payload, dict) and payload.get("body") == "added 1"
        return self.expect(good, f"add for {user}: {_brief(payload)}")

    def list_reply(self, user: str, ok: bool, payload: Any, accepted: Sequence[str]) -> None:
        body = payload.get("body") if isinstance(payload, dict) else None
        good = ok and isinstance(body, list) and sorted(body) == sorted(accepted)
        self.expect(
            good,
            f"list for {user}: got {_brief(body)}, expected {len(accepted)} own note(s)",
        )

    # -- store recovery ---------------------------------------------------

    def recovered(self, state: Any, accepted: Dict[str, List[str]]) -> None:
        """Recovered rows equal the accepted writes, with 0 label violations."""
        table = state.db.tables.get("notes")
        rows = Counter((r["author"], r["text"]) for r in (table.rows if table else ()))
        wanted = Counter((user, text) for user, texts in accepted.items() for text in texts)
        self.expect(rows == wanted, f"recovery: {sum(rows.values())} row(s), "
                                    f"expected {sum(wanted.values())}")
        violations = len(state.report.violations)
        self.expect(violations == 0, f"recovery: {violations} label violation(s)")

    # -- cluster ----------------------------------------------------------

    def courier(self, report: Dict[str, Any], digests: int, doomed: int) -> None:
        drops = report["drops"].get("label-check", 0)
        self.expect(drops == doomed, f"courier: {drops} label-check drop(s), "
                                     f"expected the {doomed} doomed V={{0}} sends", ops=doomed)
        delivered = len(report["board_log"])
        self.expect(delivered == digests, f"courier: {delivered} digest(s) on the boards, "
                                          f"expected {digests}", ops=digests)
        self.sanitizer_clean(report["sanitizer_violations"])

    # -- oracles in the request path ---------------------------------------

    def sanitizer_clean(self, violations: Any) -> None:
        self.expect(violations == 0, f"sanitizer: {violations!r} violation(s), expected 0")

    def elision_valid(self, counters: Dict[str, Any]) -> None:
        good = bool(counters.get("valid")) and counters.get("quarantines") == 0
        self.expect(good, f"elision table: valid={counters.get('valid')} "
                          f"quarantines={counters.get('quarantines')}")
        hits = counters.get("deliver_hits", 0) + counters.get("send_hits", 0)
        self.expect(hits > 0, "elision table never hit: the proofs do not match this run")

    # -- the offline oracles ------------------------------------------------

    def asbcheck(self, report: Any) -> None:
        good = report.ok and not report.truncated
        self.expect(good, f"asbcheck: {len(report.violations())} policy violation(s), "
                          f"truncated={report.truncated}")

    def asbsched(self, report: Any) -> None:
        good = report.complete and report.ok
        self.expect(good, f"asbsched[{report.mode}]: complete={report.complete} ok={report.ok}")

    def crashcheck(self, report: Any) -> None:
        self.expect(report.ok, f"crashcheck: {len(report.failures)} failing crash point(s)")

    # -- determinism ----------------------------------------------------------

    def reps_agree(self, per_rep_cycles: Iterable[Tuple[Tuple[str, int], ...]]) -> None:
        """All reps of a workload bill identical simulated cycles."""
        distinct = set(per_rep_cycles)
        self.expect(len(distinct) <= 1,
                    f"simulated cycles differ between reps: {sorted(distinct)[:2]}")


def _brief(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."
