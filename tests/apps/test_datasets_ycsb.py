"""Dataset generator (Table V) and YCSB workload generator tests."""

import random

import numpy as np
import pytest

from repro.apps.datasets import SPECS_BY_NAME, TABLE_V, generate, \
    generate_all
from repro.apps.minidb import Database
from repro.apps.ycsb import MIXES, _LETTERS, _value, load_statements, \
    workload


class TestDatasets:
    def test_table_v_shapes_verbatim(self):
        spec = SPECS_BY_NAME["protein"]
        assert (spec.classes, spec.training_size, spec.testing_size,
                spec.features) == (3, 17_766, 6_621, 357)
        assert SPECS_BY_NAME["cod-rna"].testing_size is None

    def test_generated_shapes(self):
        dataset = generate("dna", scale=0.05)
        assert dataset.train_x.shape == (100, 180)
        assert dataset.test_x.shape[1] == 180
        assert set(dataset.train_y) == {1, 2, 3}

    def test_dash_datasets_reuse_training(self):
        dataset = generate("phishing", scale=0.01)
        assert dataset.reused_training_as_test
        assert np.array_equal(dataset.test_x,
                              dataset.train_x[:len(dataset.test_x)])

    def test_deterministic(self):
        a = generate("dna", scale=0.02, seed=9)
        b = generate("dna", scale=0.02, seed=9)
        assert np.array_equal(a.train_x, b.train_x)

    def test_distinct_seeds_differ(self):
        a = generate("dna", scale=0.02, seed=1)
        b = generate("dna", scale=0.02, seed=2)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_scaled_into_unit_ball(self):
        dataset = generate("colon-cancer")
        assert np.abs(dataset.train_x).max() <= 1.0 + 1e-9

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            generate("mnist")

    def test_minimum_size_floor(self):
        dataset = generate("colon-cancer", scale=0.001)
        assert len(dataset.train_x) >= 20

    def test_generate_all(self):
        datasets = generate_all(scale=0.005)
        assert set(datasets) == {spec.name for spec in TABLE_V}

    def test_train_test_separable_consistently(self):
        """Train/test share class means: a centroid classifier fit on
        train transfers to test (the property Fig. 9 relies on)."""
        dataset = generate("dna", scale=0.05)
        centroids = {c: dataset.train_x[dataset.train_y == c].mean(axis=0)
                     for c in set(dataset.train_y)}

        def classify(x):
            return min(centroids, key=lambda c:
                       np.linalg.norm(x - centroids[c]))

        correct = sum(classify(x) == y
                      for x, y in zip(dataset.test_x, dataset.test_y))
        assert correct / len(dataset.test_y) > 0.9


class TestYcsb:
    def test_load_statements(self):
        statements = load_statements(10)
        assert statements[0].startswith("CREATE TABLE usertable")
        assert len(statements) == 11
        db = Database()
        for statement in statements:
            db.execute(statement)
        assert db.execute("SELECT COUNT(*) FROM usertable") == [(10,)]

    def test_mix_ratios(self):
        ops = list(workload("95% SELECT & 5% UPDATE", 2000, 100))
        selects = sum(op.kind == "select" for op in ops)
        updates = sum(op.kind == "update" for op in ops)
        assert selects + updates == 2000
        assert 0.90 < selects / 2000 < 0.99

    def test_pure_mixes(self):
        assert all(op.kind == "insert"
                   for op in workload("100% INSERT", 100, 10))
        assert all(op.kind == "select"
                   for op in workload("100% SELECT", 100, 10))

    def test_inserts_use_fresh_keys(self):
        db = Database()
        for statement in load_statements(20):
            db.execute(statement)
        for op in workload("100% INSERT", 50, 20):
            db.execute(op.sql)   # would raise on duplicate PK
        assert db.execute("SELECT COUNT(*) FROM usertable") == [(70,)]

    def test_selects_hit_loaded_keys(self):
        db = Database()
        for statement in load_statements(30):
            db.execute(statement)
        hits = 0
        for op in workload("100% SELECT", 100, 30):
            if db.execute(op.sql):
                hits += 1
        assert hits == 100  # uniform over loaded records: all present

    def test_unknown_mix(self):
        with pytest.raises(ValueError):
            list(workload("all chaos", 10, 10))

    def test_deterministic_given_seed(self):
        a = [op.sql for op in workload("100% SELECT", 50, 10, seed=3)]
        b = [op.sql for op in workload("100% SELECT", 50, 10, seed=3)]
        assert a == b

    def test_all_four_paper_mixes_present(self):
        assert list(MIXES) == ["100% INSERT",
                               "50% SELECT & 50% UPDATE",
                               "95% SELECT & 5% UPDATE",
                               "100% SELECT"]


class TestValue:
    """``_value`` against ``rng.choice`` letter by letter.  A CPython
    change to ``choice`` or ``getrandbits`` fails here, not as drifted
    Table VI strings."""

    @pytest.mark.parametrize("nbytes", [0, 1, 7, 100])
    def test_same_string_and_generator_state(self, nbytes):
        for seed in range(300):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert _value(ours, nbytes) == "".join(
                theirs.choice(_LETTERS) for _ in range(nbytes)), seed
            assert ours.getstate() == theirs.getstate(), seed
