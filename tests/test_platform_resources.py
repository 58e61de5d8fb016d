"""Tests for ResourceVector algebra and comparisons."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform_.resources import GPU, ResourceVector, clip_percent

components = st.floats(0, 100, allow_nan=False)
vectors = st.builds(
    lambda c, g, m, r: ResourceVector(cpu=c, gpu=g, gpu_mem=m, ram=r),
    components, components, components, components,
)


class TestConstruction:
    def test_keyword_defaults(self):
        v = ResourceVector(cpu=10)
        assert v.cpu == 10 and v.gpu == 0 and v.gpu_mem == 0 and v.ram == 0

    def test_from_array(self):
        v = ResourceVector.from_array([1, 2, 3, 4])
        assert v.as_dict() == {"cpu": 1, "gpu": 2, "gpu_mem": 3, "ram": 4}

    def test_from_array_wrong_length(self):
        with pytest.raises(ValueError):
            ResourceVector.from_array([1, 2, 3])

    def test_coerce_mapping(self):
        v = ResourceVector.coerce({"cpu": 5, "gpu": 6})
        assert v.cpu == 5 and v.gpu == 6

    def test_coerce_rejects_unknown_dims(self):
        with pytest.raises(ValueError):
            ResourceVector.coerce({"vram": 5})

    def test_coerce_passthrough(self):
        v = ResourceVector(cpu=1)
        assert ResourceVector.coerce(v) is v

    def test_full_and_zeros(self):
        assert ResourceVector.full(100).array.tolist() == [100] * 4
        assert ResourceVector.zeros().array.tolist() == [0] * 4

    def test_array_is_readonly(self):
        v = ResourceVector(cpu=1)
        with pytest.raises(ValueError):
            v.array[0] = 5

    def test_getitem_by_name_and_index(self):
        v = ResourceVector(cpu=3, gpu=7)
        assert v["cpu"] == 3 and v[GPU] == 7


class TestAlgebra:
    def test_add_sub(self):
        a = ResourceVector(cpu=10, gpu=20)
        b = ResourceVector(cpu=1, gpu=2)
        assert (a + b).cpu == 11
        assert (a - b).gpu == 18

    def test_scalar_ops(self):
        v = ResourceVector(cpu=10) * 2
        assert v.cpu == 20
        assert (v / 4).cpu == 5

    def test_maximum_minimum(self):
        a = ResourceVector(cpu=10, gpu=1)
        b = ResourceVector(cpu=2, gpu=5)
        assert a.maximum(b).as_dict()["cpu"] == 10
        assert a.maximum(b).as_dict()["gpu"] == 5
        assert a.minimum(b).as_dict()["cpu"] == 2

    def test_clip(self):
        v = ResourceVector.from_array([-5, 50, 150, 0]).clip(0, 100)
        assert v.array.tolist() == [0, 50, 100, 0]

    def test_scale(self):
        v = ResourceVector(cpu=10, gpu=10).scale(ResourceVector(cpu=2, gpu=0.5, gpu_mem=1, ram=1))
        assert v.cpu == 20 and v.gpu == 5


class TestVectorContract:
    """Vectors own one read-only array that nothing else references."""

    def test_from_array_does_not_alias_input(self):
        src = np.array([1.0, 2.0, 3.0, 4.0])
        v = ResourceVector.from_array(src)
        src[0] = 99.0
        assert v.array.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_from_array_is_readonly(self):
        v = ResourceVector.from_array(np.array([1.0, 2.0, 3.0, 4.0]))
        assert not v.array.flags.writeable
        with pytest.raises(ValueError):
            v.array[0] = 5

    @pytest.mark.parametrize("src", [
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([1, 2, 3, 4]),
        np.array([[1.0, 2.0, 3.0, 4.0]]),
        [1, 2, 3, 4],
    ])
    def test_from_array_holds_no_view(self, src):
        # A view over a copied base keeps two ndarray headers per vector.
        v = ResourceVector.from_array(src)
        assert v.array.base is None
        assert v.array.shape == (4,) and v.array.dtype == np.float64

    @pytest.mark.parametrize("src", [
        [1, 2, 3], [1, 2, 3, 4, 5], np.zeros((2, 3)), np.zeros(0), 5.0,
    ])
    def test_from_array_bad_shape_raises(self, src):
        with pytest.raises(ValueError):
            ResourceVector.from_array(np.asarray(src))

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * 2.0,
        lambda a, b: 2.0 * a,
        lambda a, b: a / 2.0,
        lambda a, b: a.maximum(b),
        lambda a, b: a.minimum(b),
        lambda a, b: a.clip(0.0, 10.0),
        lambda a, b: a.scale(b),
    ], ids=["add", "sub", "mul", "rmul", "div", "maximum", "minimum",
            "clip", "scale"])
    def test_algebra_results_are_fresh_and_readonly(self, op):
        a = ResourceVector(cpu=1, gpu=20, gpu_mem=3, ram=4)
        b = ResourceVector(cpu=5, gpu=6, gpu_mem=0.5, ram=8)
        out = op(a, b)
        assert type(out) is ResourceVector
        assert not out.array.flags.writeable
        assert out.array.base is None
        assert not np.shares_memory(out.array, a.array)
        assert not np.shares_memory(out.array, b.array)


class TestComparison:
    def test_fits_within(self):
        assert ResourceVector(cpu=10).fits_within(ResourceVector.full(10))
        assert not ResourceVector(cpu=10.1).fits_within(ResourceVector.full(10))

    def test_dominates(self):
        assert ResourceVector.full(5).dominates(ResourceVector(cpu=5))

    def test_equality_and_hash(self):
        a = ResourceVector(cpu=1.0)
        b = ResourceVector(cpu=1.0)
        assert a == b and hash(a) == hash(b)

    def test_is_nonnegative(self):
        assert ResourceVector().is_nonnegative()
        assert not ResourceVector.from_array([-1, 0, 0, 0]).is_nonnegative()

    def test_max_component(self):
        assert ResourceVector(cpu=3, gpu=9).max_component() == 9


@settings(max_examples=60, deadline=None)
@given(a=vectors, b=vectors)
def test_add_then_subtract_roundtrips(a, b):
    np.testing.assert_allclose((a + b - b).array, a.array, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(a=vectors, b=vectors)
def test_minimum_fits_within_both(a, b):
    m = a.minimum(b)
    assert m.fits_within(a) and m.fits_within(b)


@settings(max_examples=60, deadline=None)
@given(a=vectors, b=vectors)
def test_maximum_dominates_both(a, b):
    m = a.maximum(b)
    assert m.dominates(a) and m.dominates(b)


class TestClipPercent:
    VALUES = [-0.0, 0.0, -1e-300, 1e-300, 42.5, 100.0, 100.0 + 1e-12, 250.0,
              -3.0, float("nan"), float("inf"), float("-inf")]

    def test_matches_numpy_clip_bit_for_bit(self):
        want = np.clip(np.array(self.VALUES), 0.0, 100.0)
        assert np.array(clip_percent(self.VALUES)).tobytes() == want.tobytes()

    def test_random_values_match_numpy_clip(self):
        values = np.random.default_rng(5).normal(50.0, 60.0, 400)
        want = values.clip(0.0, 100.0)
        assert np.array(clip_percent(values.tolist())).tobytes() == want.tobytes()
