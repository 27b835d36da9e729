import numpy as np
import pytest

from compseg.errors import ValidationError
from compseg.oracle import (
    check_joint_factorization,
    check_likelihood_maps,
    check_monte_carlo_mass,
    check_normalizer_closed_form,
    check_order_reassignment,
    check_order_votes,
    check_pixel_competition,
    check_rescore,
    closed_form_log_normalizer_3d,
    joint_owner_reference,
    perpixel_owner_reference,
    reassignment_reference,
    table_objects,
    vote_reference,
)
from compseg.orm import orm_pass


def test_perpixel_reference_hand_table():
    table = [
        [1.0, 2.0, 0.0],    # object 1 wins
        [3.0, 2.0, 3.0],    # tie with the outlier: outlier wins
        [2.0, 2.0, 1.0],    # object tie: lowest id wins
        [-1.0, -2.0, 0.5],  # outlier wins outright
    ]
    assert perpixel_owner_reference(table) == [1, 2, 0, 2]
    assert perpixel_owner_reference([]) == []
    with pytest.raises(ValidationError):
        perpixel_owner_reference([[1.0]])
    with pytest.raises(ValidationError):
        perpixel_owner_reference([[1.0, 2.0], [1.0]])


def test_joint_reference_factorizes():
    # the objective is a sum of independent pixel terms, so the joint MAP
    # must equal the per-pixel choice, ties included
    table = [
        [1.0, 2.0, 0.0],
        [3.0, 2.0, 3.0],
        [2.0, 2.0, 1.0],
    ]
    assert joint_owner_reference(table) == perpixel_owner_reference(table)


def test_joint_reference_refuses_blowup():
    with pytest.raises(ValidationError):
        joint_owner_reference([[0.0, 0.0, 0.0]] * 20)


def test_vote_reference_hand_counts():
    owners = [0, 0, 1, 5, 0, 1]
    assert vote_reference(owners, 0, 1) == (3, 2, 1)
    assert vote_reference(owners, 1, 0) == (2, 3, -1)
    assert vote_reference(owners, 3, 4) == (0, 0, -1)


def test_reassignment_reference_hand_cases():
    # 0 is ahead of 1 and 2, 1 ahead of 2; 3 and 0 tied; 4 is the outlier
    edges = [(0, 1, 5, 2), (0, 2, 4, 1), (1, 2, 3, 0), (3, 0, 2, 2)]
    owners = [2, 2, 4, 1, 0, 2]
    claimants = [
        [0, 1, 2],   # 0 ahead of both others
        [1, 2],      # 1 ahead of 2
        [0, 1],      # the outlier holds the pixel
        [1],         # a single claim is not contested
        [0, 3],      # tied pair: nobody ahead, owner kept
        [0, 2, 3],   # 0 is not ahead of 3, 3 not ahead of 2: owner kept
    ]
    assert reassignment_reference(owners, claimants, edges, 4) == [0, 1, 4, 1, 0, 2]
    assert reassignment_reference([], [], edges, 4) == []


def test_table_objects_reproduce_reference():
    rng = np.random.default_rng(9)
    table = rng.uniform(-8.0, 0.0, size=(12, 3))
    table[4, 0] = table[4, 2]          # forced tie against the outlier
    objects = table_objects(table, (3, 4))
    got = orm_pass(objects, (3, 4))[0].reshape(-1).tolist()
    assert got == perpixel_owner_reference(table)

    with pytest.raises(ValidationError):
        table_objects(table, (4, 4))


def test_closed_form_normalizer_spot_values():
    # small-sigma limit is the area of the unit 2-sphere; 1e-6 is the lower
    # edge of the supported domain (below it 1 - exp(-2s) cancels too hard)
    assert closed_form_log_normalizer_3d(1e-6) == pytest.approx(
        np.log(4.0 * np.pi), rel=1e-6
    )
    got = closed_form_log_normalizer_3d(2.0)
    want = np.log(4.0 * np.pi * np.sinh(2.0) / 2.0)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "check,kwargs",
    [
        (check_pixel_competition, dict(cases=40)),
        (check_order_votes, dict(cases=60)),
        (check_joint_factorization, dict(cases=25)),
        (check_likelihood_maps, dict(cases=6)),
        (check_order_reassignment, dict(cases=60)),
        (check_rescore, dict(cases=40)),
    ],
)
def test_randomized_checks_pass(check, kwargs):
    mismatches, total = check(np.random.default_rng(17), **kwargs)
    assert mismatches == 0
    assert total > 0


def test_normalizer_check_passes():
    mismatches, total = check_normalizer_closed_form(points=60)
    assert (mismatches, total) == (0, 60)


def test_monte_carlo_mass_check_passes():
    mismatches, total = check_monte_carlo_mass(
        np.random.default_rng(5), dims=(3, 8), samples=30_000
    )
    assert mismatches == 0
    assert total == 6  # two dims, three concentrations each
