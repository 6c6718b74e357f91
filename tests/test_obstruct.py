from dataclasses import replace
from fractions import Fraction as QQ

import pytest

from rncgeo.construct import Datum, expected_count
from rncgeo.errors import BadShape, ObstructionFails
from rncgeo.generate import random_datum, rng_from_seed
from rncgeo.obstruct import (
    DegreeLedger,
    ObstructionCertificate,
    nonexistence_certificate,
    obstruction_quadric,
)
from rncgeo.projective import LinForm, Pencil, ProjPoint
from rncgeo.quadrics import containment_rows, evaluate_poly, monomial_index, monomials
from rncgeo.serialize import obstruction_in, obstruction_out

L1 = Pencil(LinForm([1, 0, 0, 0]), LinForm([0, 1, 0, 0]))
L2 = Pencil(LinForm([0, 0, 1, 0]), LinForm([0, 0, 0, 1]))
P1 = ProjPoint([1, 1, 1, 1])
P2 = ProjPoint([1, 2, 4, 8])
P3 = ProjPoint([1, 3, 9, 27])


def expected_quadric():
    # x1 x2 - x0 x3, normalized: first nonzero grevlex coefficient is 1
    monos = monomials(3, 2)
    idx = monomial_index(monos)
    coeffs = [QQ(0)] * len(monos)
    coeffs[idx[(0, 1, 1, 0)]] = QQ(1)
    coeffs[idx[(1, 0, 0, 1)]] = QQ(-1)
    return coeffs


def test_obstruction_quadric_concrete_instance():
    quad = obstruction_quadric(L1, L2, P1, P2, P3)
    assert quad == expected_quadric()


def test_quadric_vanishes_on_data():
    quad = obstruction_quadric(L1, L2, P1, P2, P3)
    monos = monomials(3, 2)
    for p in (P1, P2, P3):
        assert evaluate_poly(quad, monos, p) == 0
    # twenty points of each line
    for t in range(1, 21):
        on_l1 = ProjPoint([0, 0, 1, t])
        on_l2 = ProjPoint([1, t, 0, 0])
        assert evaluate_poly(quad, monos, on_l1) == 0
        assert evaluate_poly(quad, monos, on_l2) == 0


def test_nonexistence_certificate_concrete():
    datum = Datum(n=3, spaces=(L1, L2), points=(P1, P2, P3, ProjPoint([1, 1, 2, 3])))
    cert = nonexistence_certificate(datum)
    assert cert.quadric == tuple(expected_quadric())
    assert cert.excluded_value == QQ(-1)
    assert cert.ledger.intersection_lower_bound == 7
    assert cert.ledger.bezout_bound == 6
    assert cert.ledger.contradiction
    assert cert.verify()
    assert all(cert.contains_flags().values())


def test_nonexistence_certificate_is_not_verified_again(monkeypatch):
    # the quadric is a kernel vector of the rows `verify` would rebuild, so
    # the certificate is returned unchecked; its document still recomputes
    # every containment
    def no_verify(self):
        raise AssertionError("nonexistence_certificate re-verified its certificate")

    monkeypatch.setattr(ObstructionCertificate, "verify", no_verify)
    for n in (3, 4, 5):
        datum, _ = random_datum(n, 4, n - 1, rng_from_seed(("no-selfcheck", n)))
        doc = obstruction_out(nonexistence_certificate(datum))
        assert len(doc["contains"]) == 5
        assert all(doc["contains"].values())


def test_obstruction_fails_on_special_datum():
    # all four points on the moment curve, which lies inside the quadric
    datum = Datum(
        n=3, spaces=(L1, L2), points=(P1, P2, P3, ProjPoint([1, 5, 25, 125]))
    )
    with pytest.raises(ObstructionFails):
        nonexistence_certificate(datum)


def test_bad_shape_rejected():
    datum = Datum(n=3, spaces=(L1, L2), points=(P1, P2, P3))
    with pytest.raises(BadShape):
        nonexistence_certificate(datum)


def test_seeded_generic_data_all_n():
    rng = rng_from_seed(42)
    shapes = [(3, 4, 2), (4, 4, 3), (4, 5, 2), (5, 4, 4), (5, 5, 3), (5, 6, 2)]
    for n, p, l in shapes:
        assert expected_count(n, p, l).classification == "not_exists"
        for _ in range(5):
            datum, _ = random_datum(n, p, l, rng)
            cert = nonexistence_certificate(datum)
            assert cert.verify()
            assert cert.ledger.intersection_lower_bound == 2 * n + 1


def test_quadric_kernel_dimension_n4():
    rng = rng_from_seed(8)
    datum, _ = random_datum(4, 4, 3, rng)
    # the conditions count leaves exactly one quadric for generic data
    quad = obstruction_quadric(
        datum.spaces[0], datum.spaces[1], *datum.points[:3]
    )
    lead = next(c for c in quad if c)
    assert lead == 1


def concrete_certificate():
    datum = Datum(n=3, spaces=(L1, L2), points=(P1, P2, P3, ProjPoint([1, 1, 2, 3])))
    return nonexistence_certificate(datum)


def test_verify_rebuilds_the_ledger_from_n():
    cert = concrete_certificate()
    for lower, bezout in ((1, 0), (9, 8), (7, 7)):
        tampered = replace(
            cert, ledger=DegreeLedger(n=3, intersection_lower_bound=lower, bezout_bound=bezout)
        )
        assert not tampered.verify()
    assert not replace(cert, ledger=replace(cert.ledger, n=4)).verify()


def test_verify_rejects_wrong_length_quadric():
    cert = concrete_certificate()
    assert not replace(cert, quadric=cert.quadric[:-1]).verify()
    assert not replace(cert, quadric=cert.quadric + (QQ(0),)).verify()


def test_verify_rejects_missing_containments():
    cert = concrete_certificate()
    assert not replace(cert, spaces=cert.spaces[:1]).verify()
    assert not replace(cert, points=()).verify()


def test_tampered_ledger_document_fails():
    doc = obstruction_out(concrete_certificate())
    assert obstruction_in(doc).verify()
    doc["ledger"] = {"intersection_lower_bound": 1, "bezout_bound": 0}
    assert not obstruction_in(doc).verify()


def fraction_flags(cert):
    """The flags by `Fraction` evaluation of every containment row."""
    monos = monomials(cert.n, 2)
    flags = {}
    for k, pencil in enumerate(cert.spaces):
        flags[f"space_{k}"] = all(
            sum((r * q for r, q in zip(row, cert.quadric)), QQ(0)) == 0
            for row in containment_rows(pencil, 2)
        )
    for k, point in enumerate(cert.points):
        flags[f"point_{k}"] = evaluate_poly(cert.quadric, monos, point) == 0
    return flags


def test_integer_flags_match_fraction_evaluation():
    rng = rng_from_seed("integer-flags")
    for n, p, l in ((3, 4, 2), (5, 5, 3), (7, 4, 6)):
        datum, _ = random_datum(n, p, l, rng)
        cert = nonexistence_certificate(datum)
        assert cert.contains_flags() == fraction_flags(cert)
        assert all(cert.contains_flags().values())
        for k in (0, len(cert.quadric) // 2, len(cert.quadric) - 1):
            quadric = list(cert.quadric)
            quadric[k] += QQ(1, 3)
            tampered = replace(cert, quadric=tuple(quadric))
            flags = tampered.contains_flags()
            assert flags == fraction_flags(tampered), (n, k)
            assert not all(flags.values()), (n, k)
            assert not tampered.verify()
