import hashlib
import json

import pytest

from rncgeo.cli import main
from rncgeo.curves import verify_datum
from rncgeo.generate import forward_datum, rng_from_seed

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
