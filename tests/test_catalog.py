import pytest

from qgharm.catalog import (
    EXAMPLE_NAMES,
    example_summary,
    get_example,
    is_cocommutative,
    is_commutative,
    list_examples,
)
from qgharm.errors import QgharmError

EXPECTED_DIMS = {
    "z2-function": 2,
    "z3-function": 3,
    "z4-function": 4,
    "s3-function": 6,
    "z2-group": 2,
    "s3-group": 6,
    "kac-paljutkin": 8,
}


def test_catalog_lists_seven_examples():
    assert len(EXAMPLE_NAMES) == 7
    assert set(EXAMPLE_NAMES) == set(EXPECTED_DIMS)


def test_dimensions():
    for name, dim in EXPECTED_DIMS.items():
        assert get_example(name).dim == dim


def test_unknown_name_raises():
    with pytest.raises(QgharmError, match="^no example named 'z5-function'; "
                                          "known: z2-function, "):
        get_example("z5-function")


def test_examples_are_cached():
    assert get_example("s3-group") is get_example("s3-group")


def test_commutativity_flags():
    # function algebras are commutative; S3 is not abelian so its function
    # algebra is not cocommutative and its group algebra not commutative
    assert is_commutative(get_example("z4-function"))
    assert is_cocommutative(get_example("z4-function"))
    assert is_commutative(get_example("s3-function"))
    assert not is_cocommutative(get_example("s3-function"))
    assert not is_commutative(get_example("s3-group"))
    assert is_cocommutative(get_example("s3-group"))
    kp = get_example("kac-paljutkin")
    assert not is_commutative(kp)
    assert not is_cocommutative(kp)


def test_example_summary_shape():
    s = example_summary("kac-paljutkin")
    assert s == {
        "name": "kac-paljutkin",
        "dim": 8,
        "commutative": False,
        "cocommutative": False,
    }


def test_list_examples_order_matches_names():
    rows = list_examples()
    assert [r["name"] for r in rows] == list(EXAMPLE_NAMES)
