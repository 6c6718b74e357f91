"""Fuzzing the command-line surface.

Each command starts from one valid n = 3 document, and hypothesis replaces
one leaf or one key of it with an arbitrary JSON value; `expect` and
`random-datum` get arbitrary integer arguments instead.  Whatever the
input, `cli.main` must return a documented exit code and print exactly one
JSON document, and no exception may escape it.

The claims of a certificate get their own mutations: a point's parameter
or a coefficient of a space's d-form replaced by another rational.  There
`verify` must print the bytes and return the exit code of the route that
recomputes every claim.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeo.cli import main
from rncgeo.construct import construct
from rncgeo.generate import forward_datum, random_datum, rng_from_seed
from rncgeo.postulation import quartic_shape_spec
from rncgeo.serialize import certificate_out, datum_out, scheme_spec_out

from reference import verify_output_by_recomputation

EXIT_CODES = {0, 10, 11, 12, 13}

FUZZ = settings(max_examples=50, deadline=5000)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


def _documents():
    steiner, _ = forward_datum(3, 3, 3, rng_from_seed("fuzz-steiner"))
    uniform, _ = random_datum(3, 4, 2, rng_from_seed("fuzz-uniform"))
    return {
        "construct": datum_out(steiner),
        "verify": certificate_out(construct(steiner)),
        "obstruct": datum_out(uniform),
        "hilbert": scheme_spec_out(quartic_shape_spec(3, seed=1)),
        "equivalent": datum_out(steiner),
    }


DOCUMENTS = _documents()


def _slots(doc, path=()):
    """Every leaf as ("value", its path) and every object key as ("key",
    the path of its value)."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield ("key", path + (key,))
            yield from _slots(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _slots(value, path + (i,))
    else:
        yield ("value", path)


SLOTS = {command: list(_slots(doc)) for command, doc in DOCUMENTS.items()}


def _mutated(doc, slot, new):
    kind, path = slot
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in path[:-1]:
        node = node[step]
    if kind == "value":
        node[path[-1]] = new
    else:
        node[new if isinstance(new, str) else json.dumps(new)] = node.pop(path[-1])
    return doc


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in EXIT_CODES, (argv, code)
    json.loads(out.getvalue())  # exactly one document
    return code, out.getvalue()


def run_with_document(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command == "equivalent":
            right = Path(tmp) / "right.json"
            right.write_text(json.dumps(DOCUMENTS["equivalent"]))
            argv.append(str(right))
        return run_cli(argv)


def test_unmutated_documents_succeed():
    expected = {"construct": 0, "verify": 0, "obstruct": 10, "hilbert": 0, "equivalent": 0}
    for command, doc in DOCUMENTS.items():
        assert run_with_document(command, doc)[0] == expected[command], command


def test_non_integer_binary_form_degree_is_a_parse_error():
    # found by the fuzz below: a null degree once escaped as a TypeError
    slot = ("value", ("report", "spaces", 0, "secancy", "d_form", "degree"))
    for new in (None, "3", 2.0):
        assert run_with_document("verify", _mutated(DOCUMENTS["verify"], slot, new))[0] == 13


def _document_fuzz(command):
    @FUZZ
    @given(slot=st.sampled_from(SLOTS[command]), new=json_values)
    def fuzz(slot, new):
        run_with_document(command, _mutated(DOCUMENTS[command], slot, new))

    return fuzz


test_fuzz_construct = _document_fuzz("construct")
test_fuzz_verify = _document_fuzz("verify")
test_fuzz_obstruct = _document_fuzz("obstruct")
test_fuzz_hilbert = _document_fuzz("hilbert")
test_fuzz_equivalent = _document_fuzz("equivalent")


claim_rationals = st.integers(-30, 30) | st.builds(
    lambda a, b: f"{a}/{b}", st.integers(-30, 30), st.integers(1, 9)
)


@FUZZ
@given(index=st.integers(0, 2), param=st.lists(claim_rationals, min_size=2, max_size=2))
def test_fuzz_verify_parameter_claims(index, param):
    doc = _mutated(DOCUMENTS["verify"], ("value", ("report", "points", index, "param")), param)
    output = run_with_document("verify", doc)
    assert output == verify_output_by_recomputation(doc)


@FUZZ
@given(index=st.integers(0, 2), k=st.integers(0, 2), value=claim_rationals)
def test_fuzz_verify_d_form_claims(index, k, value):
    slot = ("value", ("report", "spaces", index, "secancy", "d_form", "coeffs", k))
    doc = _mutated(DOCUMENTS["verify"], slot, value)
    output = run_with_document("verify", doc)
    assert output == verify_output_by_recomputation(doc)


@FUZZ
@given(st.integers(), st.integers(), st.integers())
def test_fuzz_expect(n, p, l):
    run_cli(["expect", str(n), str(p), str(l)])


@FUZZ
@given(st.integers(), st.integers(), st.integers(), st.integers())
def test_fuzz_random_datum(n, p, l, seed):
    run_cli(["random-datum", str(n), str(p), str(l), "--seed", str(seed)])
