"""PRB arithmetic: split/mask oracles and invariant property tests."""
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ztcell.core import (
    PRBMask,
    SliceSpec,
    SplitError,
    equal_split,
    validate_slice_table,
)


def split_oracle(total: int, n: int) -> list[int]:
    # Independent construction: deal PRBs one at a time, round-robin from slice 0.
    budgets = [0] * n
    for i in range(total):
        budgets[i % n] += 1
    return budgets


class TestEqualSplit:
    def test_exact_division(self):
        assert equal_split(100, 4) == [25, 25, 25, 25]

    def test_identity_case(self):
        assert equal_split(100, 1) == [100]

    def test_remainder_to_lowest_index(self):
        expected = split_oracle(100, 3)
        assert expected == [34, 33, 33]  # frozen from the oracle
        assert equal_split(100, 3) == expected

    @pytest.mark.parametrize("total,n", [(100, 0), (100, 101), (5, 6), (1, 0)])
    def test_invalid_split(self, total, n):
        with pytest.raises(SplitError):
            equal_split(total, n)

    @given(st.integers(min_value=1, max_value=500), st.data())
    def test_split_laws(self, total, data):
        n = data.draw(st.integers(min_value=1, max_value=total))
        budgets = equal_split(total, n)
        assert sum(budgets) == total
        assert max(budgets) - min(budgets) <= 1
        assert budgets == sorted(budgets, reverse=True)  # remainder to lowest index
        assert budgets == split_oracle(total, n)


class TestValidateSliceTable:
    def test_empty_table_ok(self):
        assert validate_slice_table([], 100) == []

    def test_shared_prb_names_both(self):
        a = SliceSpec(1, PRBMask.from_range(0, 20, 100))
        b = SliceSpec(2, PRBMask.from_range(10, 20, 100))
        violations = validate_slice_table([a, b], 100)
        assert any(v.kind == "overlap" and set(v.slices) == {1, 2} for v in violations)
        assert any("PRB 10" in v.detail for v in violations)

    def test_four_disjoint_ok(self):
        slices = [SliceSpec(i + 1, PRBMask.from_range(25 * i, 25, 100)) for i in range(4)]
        # Pairwise AND of masks is zero.
        for i, a in enumerate(slices):
            for b in slices[i + 1 :]:
                assert a.mask.bits & b.mask.bits == 0
        assert validate_slice_table(slices, 100) == []

    def test_over_allocation_reported(self):
        # Disjoint masks cannot exceed the budget, so use a smaller claimed cell.
        a = SliceSpec(1, PRBMask.from_range(0, 50, 100))
        b = SliceSpec(2, PRBMask.from_range(50, 50, 100))
        violations = validate_slice_table([a, b], 80)
        assert any(v.kind == "size_mismatch" for v in violations)

    @given(st.integers(min_value=1, max_value=150), st.data())
    def test_split_then_mask_always_validates(self, total, data):
        n = data.draw(st.integers(min_value=1, max_value=total))
        budgets = equal_split(total, n)
        starts = accumulate(budgets, initial=0)
        slices = [
            SliceSpec(i + 1, PRBMask.from_range(start, b, total))
            for i, (start, b) in enumerate(zip(starts, budgets))
        ]
        assert validate_slice_table(slices, total) == []


def table_valid_oracle(slices: list[SliceSpec], total: int) -> bool:
    ids = [s.id for s in slices]
    return (
        len(set(ids)) == len(ids)
        and all(s.mask.size == total for s in slices)
        and all(
            a.mask.bits & b.mask.bits == 0
            for i, a in enumerate(slices)
            for b in slices[i + 1 :]
        )
    )


@st.composite
def slice_tables(draw):
    total = draw(st.integers(min_value=1, max_value=24))
    slices = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        size = draw(st.sampled_from([total, total, total, total + 1]))
        bits = draw(st.integers(min_value=1, max_value=(1 << size) - 1))
        slices.append(SliceSpec(draw(st.integers(min_value=1, max_value=8)), PRBMask(size, bits)))
    return slices, total


class TestValidateSliceTableOracle:
    @given(slice_tables())
    def test_valid_iff_unique_ids_cell_sized_and_pairwise_disjoint(self, table):
        slices, total = table
        assert (validate_slice_table(slices, total) == []) == table_valid_oracle(slices, total)

    def test_overlap_names_earlier_owner_of_first_shared_prb(self):
        a = SliceSpec(1, PRBMask.from_range(0, 10, 100))
        b = SliceSpec(2, PRBMask.from_range(20, 10, 100))
        c = SliceSpec(3, PRBMask.from_range(5, 20, 100))  # shares 5..9 with a, 20..24 with b
        violations = validate_slice_table([a, b, c], 100)
        assert [(v.kind, v.slices) for v in violations] == [("overlap", (1, 3))]
        assert violations[0].detail == "slices 1 and 3 share PRB 5"


class TestPRBMask:
    def test_serialized_length_is_13_bytes_for_100_prbs(self):
        assert len(PRBMask.from_range(0, 100, 100).to_bytes()) == 13

    def test_msb_of_first_byte_is_prb_zero(self):
        raw = PRBMask.from_range(0, 1, 100).to_bytes()
        assert raw[0] == 0x80 and set(raw[1:]) == {0}

    def test_prb_seven_is_lsb_of_first_byte(self):
        raw = PRBMask.from_range(7, 1, 100).to_bytes()
        assert raw[0] == 0x01

    def test_padding_bits_stay_zero(self):
        raw = PRBMask.from_range(0, 100, 100).to_bytes()
        assert raw[12] == 0b11110000  # PRBs 96..99 then 4 pad bits

    @given(st.integers(min_value=1, max_value=130), st.data())
    def test_bytes_round_trip(self, size, data):
        bits = data.draw(st.integers(min_value=0, max_value=(1 << size) - 1))
        mask = PRBMask(size=size, bits=bits)
        assert PRBMask.from_bytes(mask.to_bytes(), size) == mask

    @given(st.integers(min_value=1, max_value=130), st.data())
    def test_prb_i_is_bit_7_minus_i_mod_8_of_byte_i_div_8(self, size, data):
        nbytes = (size + 7) // 8
        raw = bytearray(data.draw(st.binary(min_size=nbytes, max_size=nbytes)))
        raw[-1] &= (0xFF << (nbytes * 8 - size)) & 0xFF  # clear the pad bits
        mask = PRBMask.from_bytes(bytes(raw), size)
        for i in range(size):
            assert mask.bits >> i & 1 == raw[i // 8] >> (7 - i % 8) & 1
        assert mask.to_bytes() == bytes(raw)

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(ValueError):
            PRBMask(size=4, bits=1 << 4)


class TestPRBMaskPadding:
    def test_nonzero_padding_bits_rejected(self):
        raw = bytearray(PRBMask.from_range(0, 100, 100).to_bytes())
        raw[12] |= 0x01  # a pad bit beyond PRB 99
        with pytest.raises(ValueError, match="padding"):
            PRBMask.from_bytes(bytes(raw), 100)
