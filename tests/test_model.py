"""Dataset schema, canonical serialization and validation rules."""

import json
import random

import pytest

from conftest import random_series
from nftfolio.model import (
    CollectionRef,
    PortfolioAllocation,
    PriceSeries,
    SchemaError,
    TokenRef,
    parse_dataset,
    serialize_dataset,
    validate_dataset,
)


def make_dataset():
    return {
        "Froganas": [
            PriceSeries(TokenRef("abc123", "Froganas"), (10, 20, 30), (1.0, 2.0, 1.5)),
            PriceSeries(TokenRef("def456", "Froganas"), (5, 15), (3.0, 0.5)),
        ],
        "OtherSet": [
            PriceSeries(TokenRef("zzz999", "OtherSet"), (100,), (7.25,)),
        ],
    }


class TestTypes:
    def test_token_must_be_alphanumeric(self):
        with pytest.raises(ValueError):
            TokenRef("not-ok!", "S")
        with pytest.raises(ValueError):
            TokenRef("", "S")

    def test_collection_ref_invariants(self):
        with pytest.raises(ValueError):
            CollectionRef("bad id", "Name", 1.0)
        with pytest.raises(ValueError):
            CollectionRef("ok1", "Name", -0.5)
        ref = CollectionRef("ok1", "Name", 0.0)
        assert ref.volume == 0.0

    def test_price_series_length_mismatch(self):
        with pytest.raises(ValueError):
            PriceSeries(TokenRef("a1", "S"), (1, 2), (1.0,))

    def test_allocation_weights_must_sum_to_one(self):
        assets = (TokenRef("a1", "S"), TokenRef("b2", "S"))
        with pytest.raises(ValueError):
            PortfolioAllocation(assets, (0.6, 0.6), sharpe=1.0)
        with pytest.raises(ValueError):
            PortfolioAllocation(assets, (1.5, -0.5), sharpe=1.0)
        alloc = PortfolioAllocation(assets, (0.25, 0.75), sharpe=1.0)
        assert alloc.weights == (0.25, 0.75)


class TestDatasetSerialization:
    def test_round_trip_is_byte_identical(self):
        text = serialize_dataset(make_dataset())
        assert serialize_dataset(parse_dataset(text)) == text

    def test_round_trip_random_datasets(self):
        rng = random.Random(1311)
        for _ in range(20):
            dataset = {
                f"Series{i}": [
                    random_series(rng, name=f"Series{i}", token=f"T{i}x{j}")
                    for j in range(rng.randint(0, 4))
                ]
                for i in range(rng.randint(1, 4))
            }
            text = serialize_dataset(dataset)
            assert serialize_dataset(parse_dataset(text)) == text

    def test_parse_names_first_malformed_element(self):
        bad = json.dumps({"S": [{"token": "a1", "history": [1, 2]}]})
        with pytest.raises(SchemaError, match=r"element 0.*missing key"):
            parse_dataset(bad)

    def test_parse_rejects_non_object(self):
        with pytest.raises(SchemaError):
            parse_dataset("[1, 2, 3]")
        with pytest.raises(SchemaError):
            parse_dataset("not json at all {")


class TestValidation:
    def test_clean_dataset_has_no_violations(self):
        assert validate_dataset(make_dataset()) == []

    def test_duplicate_timestamps_flagged(self):
        ds = {"S": [PriceSeries(TokenRef("a1", "S"), (10, 10), (1.0, 2.0))]}
        assert any("not strictly increasing" in v for v in validate_dataset(ds))

    def test_non_positive_price_flagged(self):
        ds = {"S": [PriceSeries(TokenRef("a1", "S"), (10, 20), (1.0, -2.0))]}
        assert any("price" in v for v in validate_dataset(ds))

    def test_token_in_two_series_flagged(self):
        ds = {
            "S1": [PriceSeries(TokenRef("a1", "S1"), (10,), (1.0,))],
            "S2": [PriceSeries(TokenRef("a1", "S2"), (10,), (1.0,))],
        }
        assert any("also appears" in v for v in validate_dataset(ds))

    def test_duplicate_token_within_series_flagged(self):
        ds = {
            "S1": [
                PriceSeries(TokenRef("a1", "S1"), (10,), (1.0,)),
                PriceSeries(TokenRef("a1", "S1"), (20,), (2.0,)),
            ]
        }
        assert any("duplicate token" in v for v in validate_dataset(ds))
