"""What the subcommands share: the usage error, the emitter, and one
loader per input document."""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Type


class UsageError(Exception):
    """A bad invocation or an unreadable input.  ``main`` prints it as
    ``repro <command>: <message>`` on stderr and exits 2."""


@contextmanager
def bad_input(*kinds: Type[BaseException], flag: str = "") -> Iterator[None]:
    """Turn the exceptions a malformed or missing input raises into the
    usage error, naming the *flag* that carried it."""
    try:
        yield
    except kinds as err:
        raise UsageError(f"{flag}: {err}" if flag else str(err)) from err


def emit(
    args: argparse.Namespace,
    text: Callable[[], str],
    json: Callable[[], str],
    sarif: Optional[Callable[[], str]] = None,
    *,
    to_out: bool = True,
) -> None:
    """The one place a report leaves: render it in ``--format`` (the
    producers are zero-argument callables, so only the chosen one runs)
    and write it to ``--out``, or print it when there is none or when the
    command uses ``--out`` as a directory (*to_out* false)."""
    body = {"text": text, "json": json, "sarif": sarif}[args.format]()
    if to_out and args.out:
        with open(args.out, "w") as fh:
            fh.write(body if body.endswith("\n") else body + "\n")
        print(f"wrote {args.out}")
    else:
        print(body)


def one_topology(args: argparse.Namespace) -> None:
    """``check`` and ``explore`` take exactly one of ``--topology FILE``
    and ``--okws``."""
    if bool(args.topology) == bool(args.okws):
        raise UsageError("give exactly one of --topology FILE or --okws")


def load_topology(path: str, flag: str = "") -> Any:
    from repro.analysis import model

    with bad_input(OSError, ValueError, KeyError, flag=flag):
        return model.load(path)


def load_policies(path: Optional[str]) -> Optional[List[Any]]:
    """``--policy FILE``: a non-empty list or ``{"policies": [...]}``;
    None (the topology's embedded battery) when the flag was not given.
    Anything else — one bare policy object, an empty battery — checks
    nothing, so it is a usage error rather than a pass."""
    if not path:
        return None
    import json

    from repro.policies.assertions import policies_from_json

    with bad_input(OSError, ValueError, KeyError, flag="--policy"):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        items = doc.get("policies") if isinstance(doc, dict) else doc
        if not isinstance(items, list) or not items:
            raise ValueError('expected a non-empty list or {"policies": [...]}')
        return policies_from_json(items)


def load_plan(path: str, flag: str = "") -> Any:
    from repro.faults import plan

    with bad_input(OSError, plan.PlanError, ValueError, flag=flag):
        return plan.load_plan(path)
