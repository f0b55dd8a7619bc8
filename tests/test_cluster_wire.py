"""wire/v1 codec properties: round-trip, id-only resends, tamper rejection.

The cross-shard wire is the one place labels leave a kernel's process,
so the codec gets property-level coverage: any label (⋆-bearing ones
included) must survive encode → decode onto a *different* intern table
with its content fingerprint intact, and a receiver must reject anything
it cannot verify rather than guess — a body under a fingerprint it
already knows included.  A body is the bytes its fingerprint hashes, and
a property pins that hash to the per-entry ``struct.pack`` spelling.
"""

from __future__ import annotations

import hashlib
import struct

import pytest
from hypothesis import given, strategies as st

from repro.cluster.wire import (
    WIRE_SCHEMA,
    WireDecoder,
    WireEncoder,
    WireError,
)
from repro.core.chunks import Chunk, ChunkedLabel
from repro.core.handles import HANDLE_SPACE
from repro.core.interning import InternTable, label_body, label_fingerprint
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, STAR
from repro.kernel.config import KernelConfig

# ⋆ sampled at triple weight: star-bearing labels are the interesting
# case (decontamination rights crossing the wire).
star_biased = st.sampled_from(ALL_LEVELS + (STAR, STAR))
labels = st.builds(
    Label,
    st.dictionaries(st.integers(min_value=0, max_value=80), star_biased, max_size=25),
    star_biased,
)

payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.text(max_size=20),
        st.binary(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def _codec_pair():
    """A sender/receiver pair with independent intern tables — the
    cross-process situation the codec exists for."""
    sender, receiver = InternTable(), InternTable()
    return WireEncoder(sender, src=0), WireDecoder(receiver)


def _chunked(label: Label) -> ChunkedLabel:
    return ChunkedLabel.from_label(label)


@given(es=labels, ds=labels, v=labels, dr=labels, payload=payloads)
def test_roundtrip_preserves_labels_and_payload(es, ds, v, dr, payload):
    encoder, decoder = _codec_pair()
    doc = encoder.encode(
        dst=1,
        port=4242,
        payload=payload,
        es=_chunked(es),
        ds=_chunked(ds),
        v=_chunked(v),
        dr=_chunked(dr),
        sender="prop",
    )
    message = decoder.decode(doc)
    assert message.port == 4242
    assert message.payload == payload
    for original, decoded in (
        (es, message.es),
        (ds, message.ds),
        (v, message.v),
        (dr, message.dr),
    ):
        reference = _chunked(original)
        assert decoded.default == reference.default
        assert dict(decoded.iter_entries()) == dict(reference.iter_entries())
        # Content fingerprints agree across the two tables — the id the
        # next (id-only) send of this label will use.
        assert decoder.table.fingerprint(decoded) == encoder.table.fingerprint(
            reference
        )


@given(label=labels)
def test_second_send_is_id_only_and_resolves(label):
    encoder, decoder = _codec_pair()
    chunked = _chunked(label)
    kwargs = dict(es=chunked, ds=chunked, v=chunked, dr=chunked)
    first = encoder.encode(dst=1, port=1, payload=None, **kwargs)
    second = encoder.encode(dst=1, port=1, payload=None, **kwargs)
    shipped = first["labels"]["es"]
    assert set(shipped) == {"fp", "body"} and type(shipped["body"]) is bytes
    # The body is exactly what the fingerprint hashes.
    assert _hash(shipped["body"]) == shipped["fp"]
    assert set(second["labels"]["es"]) == {"fp"}  # id-only
    decoder.decode(first)
    message = decoder.decode(second)
    assert message.es.default == chunked.default
    assert dict(message.es.iter_entries()) == dict(chunked.iter_entries())
    # A different destination has seen nothing: full body again.
    other_dst = encoder.encode(dst=2, port=1, payload=None, **kwargs)
    assert "body" in other_dst["labels"]["es"]


def _hash(body):
    return int.from_bytes(hashlib.blake2b(body, digest_size=8).digest(), "little")


def _body(*words):
    """The body of ``default, handle, level, handle, level, ...``."""
    return struct.pack(f"<{len(words)}q", *words)


def _one_doc(label=None):
    encoder, _ = _codec_pair()
    chunked = _chunked(label if label is not None else Label({7: 3}, 1))
    return encoder.encode(
        dst=1, port=9, payload={"k": b"v"}, es=chunked, ds=chunked, v=chunked,
        dr=chunked,
    )


def test_unknown_id_only_reference_is_rejected():
    _, decoder = _codec_pair()
    doc = _one_doc()
    doc["labels"]["es"] = {"fp": doc["labels"]["es"]["fp"]}  # strip the body
    with pytest.raises(WireError, match="never-shipped"):
        decoder.decode(doc)


def test_tampered_body_is_rejected():
    _, decoder = _codec_pair()
    doc = _one_doc()
    assert doc["labels"]["es"]["body"] == _body(1, 7, 3)
    doc["labels"]["es"]["body"] = _body(1, 7, 2)  # body no longer matches fp
    with pytest.raises(WireError, match="hash"):
        decoder.decode(doc)


@pytest.mark.parametrize(
    "forged",
    [_body(1, 7, STAR), _body(1, -5, 3), _body(1, 7, 2)],
    ids=["star-at-7", "negative-handle", "level-2-at-7"],
)
def test_a_known_fingerprint_does_not_vouch_for_a_body(forged):
    # The receiver has {h7: 3} under its fingerprint; a body that claims
    # that fingerprint is still checked, not resolved and ignored.
    _, decoder = _codec_pair()
    doc = _one_doc()
    assert decoder.decode(doc).es(7) == 3
    doc["labels"]["es"]["body"] = forged
    with pytest.raises(WireError, match="hash"):
        decoder.decode(doc)
    with pytest.raises(ValueError):
        decoder.table.from_wire(doc["labels"]["es"]["fp"], forged)


def test_an_old_style_body_fails_closed():
    _, decoder = _codec_pair()
    doc = _one_doc()
    fp = doc["labels"]["es"]["fp"]
    decoder.decode(doc)
    # The entries form an older encoder shipped: no "body", so not a label,
    # even under a fingerprint the receiver knows.
    doc["labels"]["es"] = {"fp": fp, "default": 1, "entries": [[7, 3]]}
    with pytest.raises(WireError, match="not a wire/v1 label"):
        decoder.decode(doc)


def test_unknown_schema_and_malformed_documents_are_rejected():
    _, decoder = _codec_pair()
    with pytest.raises(WireError, match=WIRE_SCHEMA):
        decoder.decode({"schema": "wire/v2"})
    doc = _one_doc()
    del doc["labels"]
    with pytest.raises(WireError):
        decoder.decode(doc)
    doc = _one_doc()
    doc["labels"]["ds"] = "not-a-label"
    with pytest.raises(WireError):
        decoder.decode(doc)


def test_malformed_level_code_is_rejected():
    # Shipped under its *correct* fingerprint: the content check, not the
    # hash, is what rejects it.  The other non-canonical bodies are
    # test_cluster_differential.py's bad batches.
    _, decoder = _codec_pair()
    doc = _one_doc()
    body = _body(1, 7, 4)  # no such level
    doc["labels"]["es"] = {"fp": _hash(body), "body": body}
    with pytest.raises(WireError, match="not a canonical label body"):
        decoder.decode(doc)
    assert len(decoder.table) == 0  # nothing re-interned


# -- the fingerprint layer (repro.core.interning) ----------------------------


def test_label_fingerprint_is_content_stable():
    entries = ((7, 3), (9, STAR))
    assert label_fingerprint(1, entries) == label_fingerprint(1, entries)
    assert label_fingerprint(1, entries) != label_fingerprint(2, entries)
    assert label_fingerprint(1, entries) != label_fingerprint(1, ((7, 3),))
    # Order-sensitive by design: tables always hash canonical chunk order.
    assert label_fingerprint(1, ((7, 3), (9, 1))) != label_fingerprint(
        1, ((9, 1), (7, 3))
    )


def _per_entry_fingerprint(default, entries):
    """The fingerprint spelled one ``struct.pack`` per entry."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<q", default))
    for handle, level in entries:
        h.update(struct.pack("<Qq", handle, level))
    return int.from_bytes(h.digest(), "little")


@given(
    size=st.integers(min_value=0, max_value=700),
    default=star_biased,
    rng=st.randoms(use_true_random=False),
)
def test_label_body_hashes_like_the_per_entry_spelling(size, default, rng):
    handles = sorted(rng.sample(range(HANDLE_SPACE), size))
    levels = [rng.choice([lvl for lvl in ALL_LEVELS if lvl != default]) for _ in handles]
    pairs = list(zip(handles, levels))
    # Chunked any way: runs of 1..64 entries, not the packer's full runs.
    chunks, start = [], 0
    while start < size:
        run = pairs[start : start + rng.randint(1, 64)]
        chunks.append(Chunk(run))
        start += len(run)
    label = ChunkedLabel(chunks, default)
    want = _per_entry_fingerprint(default, pairs)
    assert _hash(label_body(label)) == label_fingerprint(default, pairs) == want
    assert InternTable().fingerprint(label) == want
    decoded = InternTable().from_wire(want, label_body(label))
    assert decoded.default == default and list(decoded.iter_entries()) == pairs


def test_from_wire_returns_the_canonical_instance():
    table = InternTable()
    label = table.intern(_chunked(Label({7: 3}, 1)))
    fp = table.fingerprint(label)
    assert table.from_wire(fp) is label
    rebuilt = table.from_wire(fp, label_body(label))
    assert rebuilt is label
    with pytest.raises(KeyError):
        table.from_wire(fp ^ 1)


def test_a_dead_fingerprinted_label_leaves_nothing_in_the_table():
    table = InternTable()
    label = table.intern(_chunked(Label({7: 3}, 1)))
    fp = table.fingerprint(label)
    assert label.fingerprint == fp and table.from_wire(fp) is label
    del label
    # No strong reference, no cycle: the label died with its last referent,
    # and took its fingerprint with it.
    assert all(not held for held in vars(table).values() if hasattr(held, "__len__"))
    with pytest.raises(KeyError):
        table.from_wire(fp)


def test_interning_survives_sanitize_sample_config():
    # The sampling period is set in code (the cluster, hostbench); what is
    # pinned here is its validation.
    with pytest.raises(ValueError):
        KernelConfig(sanitize_sample=0)
    assert KernelConfig(sanitize_sample=64).sanitize_sample == 64
