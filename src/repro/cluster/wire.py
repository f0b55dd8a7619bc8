"""``wire/v1`` — the canonical cross-shard message format.

A cross-shard send leaves its kernel as ``(message, labels, effects)``:
the payload, the effective send label ``ES`` computed on the sending
shard, and the three discretionary labels (``DS``, ``V``, ``DR``) whose
checks and effects run on the receiving shard.  This module turns that
into a plain dict and back (picklable; label bodies are ``bytes``, so
not JSON-able):

.. code-block:: python

    {"schema": "wire/v1", "seq": 7, "src": 0, "dst": 2,
     "port": 4242, "sender": "courier", "payload": {...},
     "labels": {"es": {"fp": 1234..., "body": b"..."},  # label_body(ES)
                "ds": {"fp": 99...},        # id-only: dst has seen it
                ...}}

Labels are the expensive part, and interning is what makes them cheap:

- every label is named by its **fingerprint** — the stable content hash
  :func:`repro.core.interning.label_fingerprint` — because an object's
  identity is per-process and means nothing to a peer;
- the **first** send of a label to a given destination carries the full
  body: one ``bytes`` object, exactly what the fingerprint hashes
  (:func:`~repro.core.interning.label_body`: ``<q`` default, then
  ``<Qq`` handle and level per entry, handles ascending, ``⋆`` = -1);
- every **subsequent** send of the same label to that destination is
  id-only.  The decoder resolves it against its shard's local
  :class:`~repro.core.interning.InternTable` (the *re-intern* step) and
  keeps a strong reference, so an id-only reference never dangles.

The decoder verifies every full body it is given, whether or not it
already knows the fingerprint: one hash of the received bytes against
``fp``, then, for a label new to it, the canonical form — a forged or
corrupt body must not poison the receiving table.  It raises
:class:`WireError` on unknown schemas, bare unknown ids, or malformed
bodies — a shard never guesses about cross-shard input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Set

from repro.core.chunks import ChunkedLabel
from repro.core.interning import InternTable, label_body

__all__ = ["WIRE_SCHEMA", "WireDecoder", "WireEncoder", "WireError", "XShardMessage"]

#: The canonical schema tag; a receiver rejects anything else.
WIRE_SCHEMA = "wire/v1"


class WireError(ValueError):
    """Malformed, unknown-schema, or unresolvable wire/v1 input."""


@dataclass(frozen=True)
class XShardMessage:
    """One decoded cross-shard send, ready for ``Kernel.enqueue_external``."""

    seq: int
    src: int
    dst: int
    port: int
    sender: str
    payload: Any
    es: ChunkedLabel
    ds: ChunkedLabel
    v: ChunkedLabel
    dr: ChunkedLabel


def _encode_payload(value: Any) -> Any:
    """JSON-able encoding of a message payload (bytes → tagged latin-1)."""
    if isinstance(value, (bytes, bytearray)):
        return {"__wire_bytes__": bytes(value).decode("latin-1")}
    if isinstance(value, dict):
        return {key: _encode_payload(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_payload(item) for item in value]
    return value


def _decode_payload(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__wire_bytes__"}:
            return value["__wire_bytes__"].encode("latin-1")
        return {key: _decode_payload(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_payload(item) for item in value]
    return value


class WireEncoder:
    """Serializes cross-shard sends for one source shard.

    Tracks, per destination, which label fingerprints have already been
    shipped with a full body; repeats go id-only.
    """

    def __init__(self, table: InternTable, src: int) -> None:
        self.table = table
        self.src = src
        self._shipped: Dict[int, Set[int]] = {}
        self._seq = 0

    def _encode_label(self, label: ChunkedLabel, dst: int) -> Dict[str, Any]:
        fp = self.table.fingerprint(label)
        shipped = self._shipped.setdefault(dst, set())
        if fp in shipped:
            return {"fp": fp}
        shipped.add(fp)
        return {"fp": fp, "body": label_body(label)}

    def encode(
        self,
        dst: int,
        port: int,
        payload: Any,
        es: ChunkedLabel,
        ds: ChunkedLabel,
        v: ChunkedLabel,
        dr: ChunkedLabel,
        sender: str = "",
    ) -> Dict[str, Any]:
        """One send → one wire/v1 document."""
        self._seq += 1
        return {
            "schema": WIRE_SCHEMA,
            "seq": self._seq,
            "src": self.src,
            "dst": dst,
            "port": port,
            "sender": sender,
            "payload": _encode_payload(payload),
            "labels": {
                "es": self._encode_label(es, dst),
                "ds": self._encode_label(ds, dst),
                "v": self._encode_label(v, dst),
                "dr": self._encode_label(dr, dst),
            },
        }


class WireDecoder:
    """Decodes wire/v1 documents against one shard's intern table."""

    def __init__(self, table: InternTable) -> None:
        self.table = table
        #: fp → canonical label.  Strong references: the encoder's id-only
        #: optimization assumes everything it shipped stays resolvable.
        self._known: Dict[int, ChunkedLabel] = {}

    def _decode_label(self, doc: Any) -> ChunkedLabel:
        if not isinstance(doc, dict) or "fp" not in doc or len(doc) != 1 + ("body" in doc):
            raise WireError(f"not a wire/v1 label: {doc!r}")
        fp = doc["fp"]
        if "body" not in doc:
            label = self._known.get(fp)
            if label is None:
                try:
                    label = self.table.from_wire(fp)
                except KeyError as err:
                    raise WireError(
                        f"id-only reference to never-shipped label {fp:#x}"
                    ) from err
                self._known[fp] = label
            return label
        try:
            label = self.table.from_wire(fp, doc["body"])
        except ValueError as err:  # a body not hashing to fp, or not canonical
            raise WireError(f"malformed wire/v1 label body: {err}") from err
        self._known[fp] = label
        return label

    def decode(self, doc: Any) -> XShardMessage:
        """One wire/v1 document → an :class:`XShardMessage`."""
        if not isinstance(doc, dict) or doc.get("schema") != WIRE_SCHEMA:
            raise WireError(f"not a {WIRE_SCHEMA} document: {doc!r}")
        labels = doc.get("labels")
        if not isinstance(labels, dict):
            raise WireError(f"{WIRE_SCHEMA} document without labels: {doc!r}")
        try:
            return XShardMessage(
                seq=int(doc["seq"]),
                src=int(doc["src"]),
                dst=int(doc["dst"]),
                port=int(doc["port"]),
                sender=str(doc.get("sender", "")),
                payload=_decode_payload(doc.get("payload")),
                es=self._decode_label(labels["es"]),
                ds=self._decode_label(labels["ds"]),
                v=self._decode_label(labels["v"]),
                dr=self._decode_label(labels["dr"]),
            )
        except (KeyError, TypeError) as err:
            raise WireError(f"malformed {WIRE_SCHEMA} document: {doc!r}") from err
