import hashlib
import json

import pytest

from rncgeo.cli import main
from rncgeo.curves import param_to_det, verify_datum
from rncgeo import generate
from rncgeo.generate import MAX_DATUM_DIMENSION, draw_budget, forward_datum, rng_from_seed

SHAPES = {
    "n+3,0": lambda n: (n + 3, 0),
    "n+2,1": lambda n: (n + 2, 1),
    "3,n": lambda n: (3, n),
    "2,n+1": lambda n: (2, n + 1),
    "1,n+2": lambda n: (1, n + 2),
}


@pytest.mark.parametrize("n", [8, 9])
def test_forward_datum_beyond_the_default_pool(n):
    # (1, n+2) at n = 9 needs 89 distinct parameters, more than bound 30 holds
    for tag, shape in SHAPES.items():
        p, l = shape(n)
        datum, curve = forward_datum(n, p, l, rng_from_seed(("wide-pool", n, tag)))
        assert (datum.p, datum.l) == (p, l)
        assert verify_datum(curve, datum).passed, tag


def test_forward_datum_inverts_each_curve_once(monkeypatch):
    # points are evaluated on integers and the eleven chord spaces are read
    # off one cached inverse, which `param_to_det` then reuses
    from rncgeo import curves, linalg, projective

    inverses, kernels = [], []
    real_inverse, real_nullspace = linalg.Matrix.inverse, linalg.nullspace

    def counting_inverse(self):
        inverses.append(self.rows)
        return real_inverse(self)

    def counting_nullspace(m):
        kernels.append(m)
        return real_nullspace(m)

    monkeypatch.setattr(linalg.Matrix, "inverse", counting_inverse)
    for module in (linalg, curves, projective):
        monkeypatch.setattr(module, "nullspace", counting_nullspace)
    datum, curve = forward_datum(9, 1, 11, rng_from_seed(("one-inverse", 9)))
    assert (datum.p, datum.l) == (1, 11)
    assert inverses == [10] and kernels == []
    param_to_det(curve)
    assert inverses == [10]


def test_forward_datum_small_counts_keep_their_seeds(capsys):
    # (1, n+2) at n = 5 draws 29 parameters: the default bound, unchanged output
    assert main(["random-datum", "5", "1", "7", "--seed", "3", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "7155293ff60d8f9d1bf8f2704eae9241cf322b23732aef38522a3e0b1c0dd89d"
    )


def test_cli_random_datum_forward_n8(capsys):
    assert main(["random-datum", "8", "2", "9", "--forward"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["forward"] is True
    assert len(doc["datum"]["spaces"]) == 9


# -- bounded uniform data -------------------------------------------------------


def run_random_datum(capsys, *argv):
    code = main(["random-datum", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_random_datum_gives_up_when_the_box_runs_out(capsys):
    # P^1 holds about 110 distinct points with coordinates in [-9, 9]
    code, doc = run_random_datum(capsys, "1", "500", "0")
    assert code == 11
    assert doc["error_class"] == "not_generic"
    assert doc["stage"] == "generate:distinct"
    assert draw_budget(500, 0) == 25100


@pytest.mark.parametrize(
    "argv",
    [("3", "-2", "0"), ("3", "2", "-1"), ("0", "2", "0"), ("-1", "0", "0"),
     ("1", "0", "1", "--forward"), ("2", "1", "1", "--forward"),
     # above MAX_DATUM_OBJECTS points plus spaces: refused before any draw
     ("3", "1001", "0"), ("3", "600", "401"), ("3", "99999", "0"),
     ("3", "0", "1001", "--forward")],
)
def test_random_datum_rejects_bad_sizes(capsys, argv):
    code, doc = run_random_datum(capsys, *argv)
    assert code == 13
    assert doc["kind"] == "error"


def test_random_datum_at_the_cap(capsys):
    code, doc = run_random_datum(capsys, "3", "1000", "0")
    assert code == 0
    assert len(doc["datum"]["points"]) == 1000


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("4", "5", "2", "--seed", "7"),
         "4bee7cc592a7e209e6fea8850c05028ad4a5b2b39ee5992c170fa8fe11a56e63"),
        # 119 draws for 60 distinct points of P^1: the dedupe skips 59 repeats
        (("1", "60", "0", "--seed", "4"),
         "7d9d1cf1ef9fa1a914b600591b2b42d173bb2f33022e469a4a39111e3efd9848"),
    ],
)
def test_uniform_random_datum_keeps_its_seeds(capsys, argv, digest):
    assert main(["random-datum", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [MAX_DATUM_DIMENSION + 1, 10**9])
@pytest.mark.parametrize("extra", [(), ("--forward",)])
def test_random_datum_refuses_large_n_before_any_draw(capsys, monkeypatch, n, extra):
    def no_draw(*args):
        raise AssertionError("drew before checking n")

    for name in ("random_point", "random_pencil", "random_rnc"):
        monkeypatch.setattr(generate, name, no_draw)
    code, doc = run_random_datum(capsys, str(n), "1", "0", *extra)
    assert code == 13
    assert doc["error_class"] == "bad_dimension"


def test_random_datum_at_the_dimension_cap(capsys):
    n = str(MAX_DATUM_DIMENSION)
    code, doc = run_random_datum(capsys, n, "1", "1")
    assert code == 0
    assert doc["datum"]["n"] == MAX_DATUM_DIMENSION
