"""Pins the exact matrices of D0..D6: the D6 that build_variant assembles, and its prefixes.

The digests cover each variant's feature matrix (the bytes of X, NaN marking
nulls), labels and column names on the 60-user synthetic database. A change to
the column schema, the order of a block or a null pattern changes them.
"""

import hashlib

import numpy as np
import pytest

from adherence.features import VARIANTS, build_variant
from adherence.sessionize import windows_for_database

PINNED = {
    "D0": (
        "ee3e6f8ced6f406eb680b42d0c67658d9e8352a8fe7f587ddb4be7d20ef70782",
        "5342bf6a54d8ce2d72cf7ade1dc1c65e5e1116c43a24181d5e18c3cc36efdc52",
        "8f1dd97f59b0e341238d8c4fae9c6178537b93dd658c0f7d41a723b3b34725c2",
    ),
    "D1": (
        "e82481173f4e77025910d49d410b4277a0e99a69376ae3b49a32847aaaa88268",
        "5342bf6a54d8ce2d72cf7ade1dc1c65e5e1116c43a24181d5e18c3cc36efdc52",
        "0e58ff04da8cc05f8514a66e0007be8d7b3a38f613927394c7623ae699d754ba",
    ),
    "D2": (
        "6824b6dd442d38d2b21526f5cff8c73c2ed253f32eb37d5c5a7db88e1d2ff2f9",
        "5342bf6a54d8ce2d72cf7ade1dc1c65e5e1116c43a24181d5e18c3cc36efdc52",
        "d7edaa9a0943f5b042da153cb4a666994a4d8135e02918ee72f327f1cbf33c43",
    ),
    "D3": (
        "12856686e3990a5f9a53653bd6e771d1d4681d948749d5254f31b8fd279d36d1",
        "5342bf6a54d8ce2d72cf7ade1dc1c65e5e1116c43a24181d5e18c3cc36efdc52",
        "af816ccac3830085129c7475541a999ffb7fa500bf2a35b76a0756a5f27572b5",
    ),
    "D4": (
        "c9592494eef035accd9fdadcf608043cae4d30009c30f747b0cd8f9dd97df928",
        "5342bf6a54d8ce2d72cf7ade1dc1c65e5e1116c43a24181d5e18c3cc36efdc52",
        "0fcad66f5be22c982c76d4ebfbbd69e40ff7b5ec2c43d98b076ac64c44561b78",
    ),
    "D5": (
        "6c81bea3046b097de25f1ffc5e59d8bea9f09af67eeb79f7e5b9cf52b5d22762",
        "5342bf6a54d8ce2d72cf7ade1dc1c65e5e1116c43a24181d5e18c3cc36efdc52",
        "3d5a02ed45c85a05bd4320236ec429f31d048546d1ecbb2300215e12020f0d0c",
    ),
    "D6": (
        "fa215998a74a18694c959c961fffbf5c86dbfe99ea98e6ac4c84cd446491f5e1",
        "5342bf6a54d8ce2d72cf7ade1dc1c65e5e1116c43a24181d5e18c3cc36efdc52",
        "70c7845a35ad7651c945bfd50d396dd0a141624695128ad10ee7d4ad9c37e807",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def samples(small_cleansed):
    return windows_for_database(small_cleansed)


def test_every_variant_pinned():
    assert sorted(PINNED) == VARIANTS


@pytest.mark.parametrize("variant", sorted(PINNED))
def test_build_variant_pinned(samples, small_cleansed, variant):
    ds = build_variant(samples, small_cleansed.profiles).prefix(variant)
    assert ds.X.dtype == np.float64 and ds.y.dtype == np.int64
    got = (
        _sha(np.ascontiguousarray(ds.X).tobytes()),
        _sha(np.ascontiguousarray(ds.y).tobytes()),
        _sha("\n".join(ds.column_names).encode("utf-8")),
    )
    assert got == PINNED[variant]
