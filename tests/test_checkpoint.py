"""Checkpoint binary format contracts."""

import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chroma.checkpoint import MAGIC, _write_records, read_checkpoint, \
    write_checkpoint

# what older writers put in the optimizer section
LEGACY_OPTIMIZER = {
    "optimizer/learning_rate": np.asarray([0.01], dtype=np.float32),
    "optimizer/momentum": np.asarray([0.9], dtype=np.float32),
}


def with_optimizer_section(raw: bytes, records=LEGACY_OPTIMIZER) -> bytes:
    """A checkpoint's bytes with its empty optimizer section (the final
    zero count) replaced by ``records``, as older writers left it."""
    assert raw.endswith(struct.pack("<I", 0))
    section = io.BytesIO()
    _write_records(section, records)
    return raw[:-4] + section.getvalue()


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"layer.w": rng.normal(size=(3, 4)).astype(np.float32),
                  "layer.b": rng.normal(size=4).astype(np.float32)}
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, ("red", "blue"), "seed = 1\n", params)
        ckpt = read_checkpoint(path)
        assert ckpt.vocabulary == ("red", "blue")
        assert ckpt.config_text == "seed = 1\n"
        assert set(ckpt.params) == set(params)
        for k in params:
            assert np.array_equal(ckpt.params[k], params[k])

    def test_optimizer_section_is_written_empty(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, ("a", "b"), "",
                         {"w": np.ones(2, dtype=np.float32)})
        assert path.read_bytes().endswith(
            b"\x01\x00\x00\x00w" + struct.pack("<II", 1, 2)
            + np.ones(2, dtype="<f4").tobytes() + struct.pack("<I", 0))

    def test_legacy_optimizer_records_are_read_and_dropped(self, tmp_path):
        path = tmp_path / "m.ckpt"
        params = {"w": np.arange(3, dtype=np.float32)}
        write_checkpoint(path, ("a", "b"), "seed = 1\n", params)
        current = read_checkpoint(path)
        path.write_bytes(with_optimizer_section(path.read_bytes()))
        legacy = read_checkpoint(path)
        assert legacy.vocabulary == current.vocabulary
        assert legacy.config_text == current.config_text
        assert legacy.params.keys() == current.params.keys()
        assert legacy.params["w"].tobytes() == current.params["w"].tobytes()
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(clipped)

    def test_file_starts_with_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, ("a", "b"), "", {})
        assert path.read_bytes().startswith(MAGIC)

    def test_records_are_little_endian_float32(self, tmp_path):
        path = tmp_path / "m.ckpt"
        value = np.asarray([1.5, -2.0], dtype=np.float64)
        write_checkpoint(path, ("a", "b"), "", {"w": value})
        raw = path.read_bytes()
        # locate the record payload: name "w" followed by ndim=1, dim=2
        marker = b"\x01\x00\x00\x00w" + struct.pack("<II", 1, 2)
        idx = raw.find(marker)
        assert idx >= 0
        payload = raw[idx + len(marker):idx + len(marker) + 8]
        assert np.array_equal(np.frombuffer(payload, dtype="<f4"),
                              np.asarray([1.5, -2.0], dtype="<f4"))

    def test_float64_values_are_stored_as_float32(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, ("a", "b"), "",
                         {"w": np.asarray([1 / 3], dtype=np.float64)})
        back = read_checkpoint(path).params["w"]
        assert back.dtype == np.dtype("<f4")
        assert back[0] == np.float32(1 / 3)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCKPT" + bytes(32))
        with pytest.raises(ValueError, match="CNATTN1"):
            read_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, ("a", "b"), "config",
                         {"w": np.ones(8, dtype=np.float32)})
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(clipped)

    def test_scalar_record_round_trip(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, ("a", "b"), "",
                         {"s": np.asarray(2.5, dtype=np.float32)})
        back = read_checkpoint(path).params["s"]
        assert back.shape == () and back == np.float32(2.5)

    def test_a_float32_record_is_written_without_a_copy(self, tmp_path):
        import tracemalloc
        path = tmp_path / "m.ckpt"
        record = np.arange(2 * 2**20, dtype=np.float32).reshape(2048, 1024)
        tracemalloc.start()
        try:
            write_checkpoint(path, ("a", "b"), "", {"w": record})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.nbytes == 8 * 2**20 and peak < 2**20
        assert read_checkpoint(path).params["w"].tobytes() == record.tobytes()

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, ("a", "b"), "old",
                         {"w": np.ones(4, dtype=np.float32)})
        before = path.read_bytes()
        # the second record cannot be converted, so the write fails after
        # the header and the first record are out
        with pytest.raises(ValueError):
            write_checkpoint(path, ("a", "b"), "new",
                             {"w": np.zeros(4, dtype=np.float32),
                              "bad": "not a number"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def _valid_checkpoint_bytes() -> bytes:
    """A file with records in both sections, so fuzzing reaches the
    optimizer section that older writers filled."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        write_checkpoint(path, ("red", "blue"), "seed = 1\n",
                         {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                          "s": np.asarray(2.5, dtype=np.float32)})
        return with_optimizer_section(
            path.read_bytes(), {"optimizer/momentum": np.asarray([0.9])})


VALID = _valid_checkpoint_bytes()


class TestCorruptCheckpoints:
    """Whatever the damage, the reader raises ValueError and nothing else."""

    @staticmethod
    def _read(tmp_path, raw: bytes):
        path = tmp_path / "fuzz.ckpt"
        path.write_bytes(raw)
        return read_checkpoint(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.integers(0, len(VALID) - 1))
    def test_every_truncation_raises_value_error(self, tmp_path, cut):
        with pytest.raises(ValueError):
            self._read(tmp_path, VALID[:cut])

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(patches=st.lists(st.tuples(st.integers(0, len(VALID) - 1),
                                      st.integers(0, 2**32 - 1),
                                      st.sampled_from([1, 4])),
                            min_size=1, max_size=4),
           cut=st.none() | st.integers(0, len(VALID)))
    def test_patched_bytes_load_or_raise_value_error(self, tmp_path, patches,
                                                     cut):
        raw = bytearray(VALID)
        for offset, value, width in patches:
            raw[offset:offset + width] = value.to_bytes(4, "little")[:width]
        try:
            ckpt = self._read(tmp_path, bytes(raw[:cut]))
        except ValueError:
            return
        for arr in ckpt.params.values():
            assert arr.dtype == np.dtype("<f4")
