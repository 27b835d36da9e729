import numpy as np
import pytest

from compseg.formats import load_scene
from compseg.learning import TrainConfig, train
from compseg.models import CandidateMaps
from compseg.synth import ChallengeConfig, generate_challenge

# Small shared dataset: big enough to exercise every scenario and bucket,
# small enough that the whole unit suite stays fast. The acceptance tests
# build their own desk-scale challenge.
TINY = ChallengeConfig(per_level=2, train_scenes=24, backgrounds=6, seed=11)


def candidates_of(rows) -> CandidateMaps:
    """A candidate table of hand-made `LikelihoodMaps`, given class by class."""
    flat = [m for row in rows for m in row]
    return CandidateMaps(np.stack([np.stack([m.fg, m.ctx, m.occ]) for m in flat]),
                         np.stack([m.amodal for m in flat]), [len(row) for row in rows])


@pytest.fixture(scope="session")
def tiny_challenge(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny-challenge")
    return generate_challenge(str(root), TINY)


@pytest.fixture(scope="session")
def tiny_train_pairs(tiny_challenge):
    return [
        load_scene(tiny_challenge, e)
        for e in tiny_challenge.select(split="train")
    ]


@pytest.fixture(scope="session")
def tiny_backgrounds(tiny_challenge):
    return [
        load_scene(tiny_challenge, e)[0]
        for e in tiny_challenge.select(scenario="background")
    ]


@pytest.fixture(scope="session")
def tiny_bundle(tiny_train_pairs, tiny_backgrounds):
    bundle, _ = train(tiny_train_pairs, tiny_backgrounds, TrainConfig(k=32, m=2, seed=0))
    return bundle
