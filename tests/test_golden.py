"""Byte-identity of emitted existence certificates.

Each entry pins the sha256 of `certificate_out(construct(datum))`, dumped
with sorted keys, for forward data of all five existence shapes at
n = 3..6 and two fixed seeds, and at the benchmark's sizes n = 7..9.  A
change to any constructor, to the emitted matrix or parametrization, or to
the report changes a digest.

The n = 7..9 data are built as the benchmark builds its forward data: one
parameter pool of `max(30, count)` on each side of zero, then
`point_at_param` and `chord_space`.
"""

import hashlib
import json

from rncgeo.construct import Datum, ExistenceCertificate, construct
from rncgeo.curves import chord_space, curve_equals, det_to_param, point_at_param
from rncgeo.generate import distinct_parameters, forward_datum, random_rnc, rng_from_seed
from rncgeo.serialize import certificate_out

from reference import np2_matrix_by_linsolve

SHAPES = {
    "n+3,0": lambda n: (n + 3, 0),
    "n+2,1": lambda n: (n + 2, 1),
    "3,n": lambda n: (3, n),
    "2,n+1": lambda n: (2, n + 1),
    "1,n+2": lambda n: (1, n + 2),
}

GOLDEN = {
    "3:n+3,0:0": "a148aa6feb082ce9a3970202e91bea8e263a55ee937d9e15b68c739c34dce80a",
    "3:n+3,0:1": "6570be530e613fab56bb5155338579a303747e643b96e71d4728c92e22a364a6",
    "3:n+2,1:0": "b14b171d2b434872c4bfbbbfe6b1fbfd18cfc587bd04a57586274605c736e54a",
    "3:n+2,1:1": "44cd9d44f2cc5ea9bedc87a4a8d29dc0326e7c082c88c6f5d1678e36cc278b60",
    "3:3,n:0": "721391a49e2e201a621d525f688110ab69951eec9e64e4ff482b20e8fa595525",
    "3:3,n:1": "a9cf5c53cd31d14658a80912a8555b58c9d306e38b1334abb72b4369910911a1",
    "3:2,n+1:0": "5a0f13467b70b735915938feca7f2cf2079b362c6974950648c69e505b0f38fd",
    "3:2,n+1:1": "18124678117c701788b29bf66ce2537bc7b8488a715c9ff2cd3b142bbea1360c",
    "3:1,n+2:0": "c0d5936b0e7a8098d76d32eb4d394a385a5d321f1adb6c2a44a4b2ac719493c8",
    "3:1,n+2:1": "f4a75663bb4c098a458127ee8168bc4125ce246c4a8ddca8b04701d2fa462a38",
    "4:n+3,0:0": "409c062845ff9e084fb90d6759ba4286226cb28a65d8dbef30418eae69495baf",
    "4:n+3,0:1": "6108d3be6dd633cb949ba6ca2f62e964856ffa2e07d5800fac21670d8648c5e9",
    "4:n+2,1:0": "5ca52ba06257d3f7a0e5771d2ef4b63bf4aad77538f5745287291a954c2339e2",
    "4:n+2,1:1": "699fd0707ab919a5e865b01128948c6fd35903e16ff4233326c2ce0493426c43",
    "4:3,n:0": "5ef053e2b2c4e3db1daba93414d2c2adea9d522305ec765355e4dcd74b855221",
    "4:3,n:1": "61f6b6fd98646e6c73c7bbcc378117cdc6a09b65df2e9e6623795b478b68628d",
    "4:2,n+1:0": "5a217a7f0499f291a660138f99407dd4213565c8ceb1ecb87a718dc69cde90f1",
    "4:2,n+1:1": "ddc52b7677c8f90bd229a92b8ee1e265e3f1e3b1a95d8b21c73762da465627b3",
    "4:1,n+2:0": "248488234fd9fef308bfbc411a2885567b987bec490f6e71869f95ca2541a3f7",
    "4:1,n+2:1": "de2d0295e424e4487e259dd196b46310b4d72579609455e1ad6ead36e59da760",
    "5:n+3,0:0": "319ab5f7abd17ce8aa7274db518fe37c4602e18079e26236f4ab90457147b04d",
    "5:n+3,0:1": "af9f2987d5058729444d34d0cece1ee8346ed18eb5ca285423fe37714de44260",
    "5:n+2,1:0": "71efd4db9cd5d392d2975dbdb533dfb4bcdf519524bcbb1aab11b52085abb94f",
    "5:n+2,1:1": "902f29d6123a25b6f15d51815bd19b1ad8af0b594b19d862e42e5f17d33f27c0",
    "5:3,n:0": "32ad4f740f635b7e623f8aec5f4176845cfe1ac7eed17c2f4f1e7a7eecc14c68",
    "5:3,n:1": "c432346a133b3fa9db4c1a14cfc3f2b131caa20e6f656d7cd577e5ef2a5bf30d",
    "5:2,n+1:0": "10a7da3b8331669a9624e88d26d5f3fbc4f4977d7b86cf8ed577abf5fac29fc1",
    "5:2,n+1:1": "42f4ce30220789d04a70fd5c6822ba290a33cb8584ac0d4cdc811fb965d8572c",
    "5:1,n+2:0": "5a683a8893fdc571a40e36dcafa31833c7cf191d63883766f14368c9135c2a09",
    "5:1,n+2:1": "93ce60257f1cb3a08aaca04d881f34c2a424eef2766d3f1fe6d3497db98004de",
    "6:n+3,0:0": "6a825611b50dcc59f5987bc5fd7e5d67df702a82e1f5f465e81a6203bf2ccdd5",
    "6:n+3,0:1": "a95b77e94f2307f21cb0d54cd5e6c65f8a049f92e9ba271e298913731fdfea63",
    "6:n+2,1:0": "47e07d8013fb2c70c7259119adc65beda0160833fd3b36e911e7dd157cd15288",
    "6:n+2,1:1": "056ce1cb6715cd1eb87fd4334458178ed4933c2286d39f4210a523ac2ff77a61",
    "6:3,n:0": "ea6346cde2aa13bd99a1ff5f60e1cbbf96e151f8b499e1a0fdff2e198e7241b3",
    "6:3,n:1": "e3bf81caa22029aff647ecec0d20519609946ce75e18da3111bb61715252382a",
    "6:2,n+1:0": "08c3a321d48f7b52671489081236569c352cae7ea1ae52e723d4ecbcee40a404",
    "6:2,n+1:1": "26754700cdb17eab9e7008863c5c59e0014196fa1aa91d4063381d3e5c98b2f7",
    "6:1,n+2:0": "99be1970a33f2cf76e8aaef48c0aefd431f9b479d6e452524734e4a9dab75c5b",
    "6:1,n+2:1": "10cc84bb855d533b4d8a17de663fdb942bc8fa8948c41bae09106cc46f6fa76d",
}

GOLDEN_LARGE = {
    "7:n+3,0:0": "5d368563e86fe9b34804311095750494edb6c4e50683f4e32b8065db276f8b90",
    "7:n+3,0:1": "fd41ef3251eae3ddb5a9f862c5d5205a83fc672092b7f089d27b6bac926428db",
    "7:n+2,1:0": "c6444bae34338c656540cad2b3c86c404651b9b0caebf7acd25fa653fcf02f42",
    "7:n+2,1:1": "15558594602f1d81141df292ee29bba3f0bf5b1d7633cd26437e699df29b4425",
    "7:3,n:0": "63a93c0f617414401dd5110017efefe62eae41418a7831cb2a92e5940e145cb0",
    "7:3,n:1": "5a7a24d878761cffacede6dbaf323c4ff261c6c6c9017e0044bcbb96b5d2a63e",
    "7:2,n+1:0": "8e654acac31a69a0e51027e4e7e1454faff393f4e6a53f8858f34b55d775b3fc",
    "7:2,n+1:1": "eec3d74e07a19d0ccedf6c08829edd4f8e9dd176194fd285a24ee2d001e7679e",
    "7:1,n+2:0": "066fa0d42cc76e8fc3d6cb474f87b82e1a2349f4e209d83ab97f069e4e00c36c",
    "7:1,n+2:1": "b9edb32420b920262f06ceef20fef26ecda052d7f5ac958164c750736d2b6017",
    "8:n+3,0:0": "a10652a4ac4032945371b252280842155634693e5ec871ea5a990822feef31de",
    "8:n+3,0:1": "96c362e40aa364c978454054b50ed8f24cdc5dce3645a6d02d9f29e02e95dd06",
    "8:n+2,1:0": "566099ad1660b30f7fad8799dccaf6bd9181c16fa70d9283f7e62efcb5bfda98",
    "8:n+2,1:1": "5cd3f748741e477690924807d1b663331cfd5b2e614bc2f919ecec73f3ebba90",
    "8:3,n:0": "8650a69985fb9f127d0227c5e564622d7e12dc7d64362081d1527c86e486338b",
    "8:3,n:1": "072c3c3aead778aaa5bfe7ea525a43c94ceca7d528486e9e2b69b1d409d69e41",
    "8:2,n+1:0": "6b883d4af35496e8874f3ad7f2c5be22b2ffd01d792ffe35f728b7043f03a535",
    "8:2,n+1:1": "c6e67c12911a8cb4640761a7f4ebba35cb8f9fcf48876e0f09734cb3be5d8cea",
    "8:1,n+2:0": "9ea6b787679f839d1307b866c265045f1fe911dfedb74d06f45dfd327a2c6920",
    "8:1,n+2:1": "f8315d7810b2dd59d1af3492aadf15c3b4d6a5469baf04f6033dcd171eda8805",
    "9:n+3,0:0": "9dd0a34270ab81b48ca42dc07e6f3bf82c0c85bf9729b1508095295e8d148f06",
    "9:n+3,0:1": "1de8b4dbf13911c379e532ae79562f13b35b14a988788fac6d9fabf5b4895f3d",
    "9:n+2,1:0": "69b5119dcd0399cde1e0caf1b3206680d723a22ce9b91fe1bca7036448d9593a",
    "9:n+2,1:1": "ef055528fdd9f26fd17f62e5ed9ff465339551efccc93a37614ca577c46dc5d6",
    "9:3,n:0": "1dc9947ad32a4482b64f7babdf3467f5da0d73ba81789f103f23409889754be5",
    "9:3,n:1": "30d2110b1f442dd10cabdd49d7a02d45503a061c22e2bf5dae5154f762f6556a",
    "9:2,n+1:0": "5cdf4ce8ca98fad64f46839f2c07da9034b8abafc8ada328c35a5a0d4571184b",
    "9:2,n+1:1": "79dc11de2a1836b0e26c4a0995047d45377fc31cc67606c07d6852435c0fb3f9",
    "9:1,n+2:0": "b3bd83a9c6450b241d04123a8636ac7c1837291227276a9d7369469e90d008b5",
    "9:1,n+2:1": "003527b68a8068381c4885243c67ee7233ed998d5d10e40bdee47b49eea88bae",
}


def bench_sized_datum(n, p, l, rng):
    curve = random_rnc(n, rng)
    count = p + l * (n - 1)
    params = distinct_parameters(count, rng, bound=max(30, count))
    points = [point_at_param(curve, t) for t in params[:p]]
    spaces = [
        chord_space(curve, params[p + k * (n - 1): p + (k + 1) * (n - 1)])
        for k in range(l)
    ]
    return Datum(n=n, spaces=tuple(spaces), points=tuple(points))


def digest(cert):
    doc = certificate_out(cert)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def golden_datum(key):
    """The datum whose certificate `key` pins."""
    n, tag, seed = key.split(":")
    n = int(n)
    p, l = SHAPES[tag](n)
    rng = rng_from_seed(("golden", n, tag, int(seed)))
    if key in GOLDEN_LARGE:
        return bench_sized_datum(n, p, l, rng)
    datum, _ = forward_datum(n, p, l, rng)
    return datum


def certificate_digest(key):
    return digest(construct(golden_datum(key)))


def test_certificate_bytes_unchanged():
    assert len(GOLDEN) == 4 * len(SHAPES) * 2
    changed = [key for key, digest in GOLDEN.items() if certificate_digest(key) != digest]
    assert not changed


def test_certificate_bytes_unchanged_at_benchmark_sizes():
    assert len(GOLDEN_LARGE) == 3 * len(SHAPES) * 2
    changed = [key for key, value in GOLDEN_LARGE.items() if certificate_digest(key) != value]
    assert not changed


def test_np2_certificates_match_the_linsolve_route_but_for_the_matrix():
    # the (n+2, 1) columns come from the `nullspace` basis of the quadric
    # system, and `np2_matrix_by_linsolve` splits another basis of it; the
    # matrices differ by a column operation, so they define one curve with
    # the same primitive coefficients, and only the `det` section differs
    keys = [key for key in [*GOLDEN, *GOLDEN_LARGE] if ":n+2,1:" in key]
    assert len(keys) == 14
    for key in keys:
        datum = golden_datum(key)
        cert = construct(datum)
        reference = np2_matrix_by_linsolve(datum.points, datum.spaces[0])
        assert cert.curve == det_to_param(reference), key
        assert curve_equals(cert.det, reference), key
        doc = certificate_out(cert)
        expected = certificate_out(ExistenceCertificate.make("np2_one_space", datum, reference))
        del doc["det"], expected["det"]
        assert doc == expected, key
