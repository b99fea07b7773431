"""Tests for the synthetic workload generators."""

import mmap
import tracemalloc
import weakref

import pytest

from repro.apps import datasets, postgres
from repro.apps.datasets import (
    FILL_BYTES,
    OBJ_MAGIC,
    generate_agrep_corpus,
    generate_gnuld_objects,
    generate_xds_dataset,
    random_fill,
    xds_slice_plan,
)
from repro.apps.postgres import PostgresWorkload, generate_postgres_relations
from repro.fs.filesystem import FileSystem
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.runner import run_experiment_with_system
from repro.params import BLOCK_SIZE
from repro.sim.rng import DeterministicRng


class TestAgrepCorpus:
    def test_file_count(self):
        fs = FileSystem()
        inodes = generate_agrep_corpus(fs, 20, seed=1)
        assert len(inodes) == 20
        assert fs.nfiles == 20

    def test_size_bounds(self):
        fs = FileSystem()
        for inode in generate_agrep_corpus(fs, 50, seed=1, min_kb=4, max_kb=64):
            assert 4 * 1024 <= inode.size <= 64 * 1024

    def test_heavy_tail(self):
        fs = FileSystem()
        sizes = [i.size for i in generate_agrep_corpus(fs, 200, seed=1)]
        small = sum(1 for s in sizes if s < 16 * 1024)
        assert small > len(sizes) // 2

    def test_deterministic(self):
        sizes1 = [i.size for i in generate_agrep_corpus(FileSystem(), 30, seed=9)]
        sizes2 = [i.size for i in generate_agrep_corpus(FileSystem(), 30, seed=9)]
        assert sizes1 == sizes2


class TestGnuldObjects:
    def _specs(self, nfiles=10, seed=3):
        fs = FileSystem()
        return fs, generate_gnuld_objects(fs, nfiles, seed)

    def test_header_fields_parse_back(self):
        fs, specs = self._specs()
        for spec in specs:
            data = fs.lookup(spec.path).data
            assert int.from_bytes(data[0:8], "little") == OBJ_MAGIC
            symhdr_off = int.from_bytes(data[8:16], "little")
            assert int.from_bytes(data[16:24], "little") == spec.size
            nsect = int.from_bytes(data[symhdr_off + 32:symhdr_off + 40], "little")
            assert nsect == spec.nsections

    def test_symtab_records_match_spec(self):
        fs, specs = self._specs()
        for spec in specs:
            data = fs.lookup(spec.path).data
            symhdr_off = int.from_bytes(data[8:16], "little")
            symtab_off = int.from_bytes(data[symhdr_off:symhdr_off + 8], "little")
            for s in range(spec.nsections):
                at = symtab_off + s * 16
                assert int.from_bytes(data[at:at + 8], "little") == \
                    spec.section_offsets[s]
                assert int.from_bytes(data[at + 8:at + 16], "little") == \
                    spec.section_lengths[s]

    def test_reloc_pointers_in_sections(self):
        fs, specs = self._specs()
        for spec in specs:
            data = fs.lookup(spec.path).data
            for s in range(spec.nsections):
                at = spec.section_offsets[s]
                assert int.from_bytes(data[at:at + 8], "little") == \
                    spec.reloc_offsets[s]
                assert int.from_bytes(data[at + 8:at + 16], "little") == \
                    spec.reloc_lengths[s]

    def test_all_regions_within_file(self):
        fs, specs = self._specs(nfiles=20)
        for spec in specs:
            size = fs.lookup(spec.path).size
            for off, length in zip(spec.section_offsets, spec.section_lengths):
                assert off + length <= size
            for off, length in zip(spec.reloc_offsets, spec.reloc_lengths):
                assert off + length <= size
            for off, length in zip(spec.debug_offsets, spec.debug_lengths):
                assert off + length <= size

    def test_symbol_header_not_in_block_zero(self):
        """The data dependence only bites if the symbol header needs a
        separate disk block from the file header."""
        fs, specs = self._specs(nfiles=20)
        for spec in specs:
            data = fs.lookup(spec.path).data
            symhdr_off = int.from_bytes(data[8:16], "little")
            assert symhdr_off >= BLOCK_SIZE

    def test_debug_count_range(self):
        _, specs = self._specs(nfiles=20)
        for spec in specs:
            assert 6 <= spec.ndebug <= 9
            assert 4 <= spec.nsections <= 9


class TestXdsDataset:
    def test_size_is_cube(self):
        fs = FileSystem()
        inode = generate_xds_dataset(fs, 32, seed=1)
        assert inode.size == 32 ** 3 * 4

    def test_volume_is_built_in_place(self):
        """The generator hands its buffer to the file system: the volume is
        held once while it is created, not three times over.  It is written
        into a mapping, which tracemalloc cannot see, so what is counted is
        the mapped volume plus the heap's traced peak."""
        size = 64 ** 3 * 4
        _evict()
        tracemalloc.start()
        try:
            inode = generate_xds_dataset(FileSystem(), 64, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inode.size == size
        assert isinstance(inode.data.obj, mmap.mmap)
        assert peak + inode.data.nbytes <= 1.5 * size

    def test_slice_plan_shape(self):
        plan = xds_slice_plan(64, 10, seed=2)
        assert len(plan) == 20
        axes = plan[0::2]
        positions = plan[1::2]
        assert all(a in (1, 2) for a in axes)
        assert all(0 <= p < 64 for p in positions)

    def test_plan_deterministic(self):
        assert xds_slice_plan(64, 10, seed=2) == xds_slice_plan(64, 10, seed=2)
        assert xds_slice_plan(64, 10, seed=2) != xds_slice_plan(64, 10, seed=3)


# Four datasets of about 2 MB each, one per generator.  The inner heap is
# kept small: ``randbytes`` draws it through an int of its own size.
_POSTGRES = PostgresWorkload(outer_pages=160, inner_pages=48)
GENERATORS = {
    "agrep": lambda fs: generate_agrep_corpus(fs, 300, seed=1),
    "gnuld": lambda fs: generate_gnuld_objects(fs, 14, seed=3),
    "xds": lambda fs: generate_xds_dataset(fs, 80, seed=1),
    "postgres": lambda fs: generate_postgres_relations(fs, _POSTGRES),
}


def _built(app):
    fs = FileSystem(allocation_jitter_blocks=24, seed=7)
    GENERATORS[app](fs)
    return [fs.inode(ino) for ino in range(fs.nfiles)]


def _evict():
    """Only a generator changes the slot: building something else empties it."""
    generate_xds_dataset(FileSystem(), 2, seed=0)


def _views(made):
    """The buffers in what a dataset generator returned."""
    if isinstance(made, memoryview):
        return [made]
    if isinstance(made, (list, tuple)):
        return [view for item in made for view in _views(item)]
    return []


class _Generations:
    """Watches dataset generators through the mappings their files live in.

    tracemalloc cannot see a mapping, so each watched generator is wrapped:
    when it returns, weak references to the mappings under its files are
    taken, with the file bytes in each; when the next one starts, the bytes
    in earlier mappings that are still alive are summed.  ``generations``
    holds ``(bytes still mapped at the start, bytes generated)`` per call.
    """

    def __init__(self, monkeypatch, names):
        self.generations = []
        self._mapped = []  # (weak reference to a mapping, file bytes in it)
        for module, name in names:
            monkeypatch.setattr(module, name, self._watched(getattr(module, name)))

    def held(self):
        return sum(nbytes for ref, nbytes in self._mapped if ref() is not None)

    def _watched(self, generate):
        def generate_watched(*args):
            before = self.held()
            made = generate(*args)
            in_mapping = {}
            for view in _views(made):
                ref, nbytes = in_mapping.get(id(view.obj), (weakref.ref(view.obj), 0))
                in_mapping[id(view.obj)] = (ref, nbytes + view.nbytes)
            self._mapped.extend(in_mapping.values())
            self.generations.append(
                (before, sum(nbytes for _, nbytes in in_mapping.values())))
            return made
        return generate_watched


ALL_GENERATORS = [(datasets, "_agrep_files"), (datasets, "_gnuld_files"),
                  (datasets, "_xds_volume"), (postgres, "_postgres_relations")]


class TestLastDataset:
    @pytest.mark.parametrize("app", sorted(GENERATORS))
    def test_warm_build_equals_cold_build(self, app):
        """File systems built from one slot entry share its buffers, lay
        the files out alike, and hold what a fresh generation holds."""
        _evict()
        first = _built(app)
        second = _built(app)
        _evict()
        cold = _built(app)
        assert len(first) > 0
        for a, b, c in zip(first, second, cold):
            assert b.data is a.data
            assert c.data is not a.data
            assert (a.path, a.first_lbn, bytes(a.data)) \
                == (b.path, b.first_lbn, bytes(b.data)) \
                == (c.path, c.first_lbn, bytes(c.data))
        assert len(first) == len(second) == len(cold)

    def test_a_different_argument_is_a_different_dataset(self):
        a = generate_xds_dataset(FileSystem(), 8, seed=1)
        b = generate_xds_dataset(FileSystem(), 8, seed=2)
        assert bytes(a.data) != bytes(b.data)
        assert generate_xds_dataset(FileSystem(), 8, seed=2).data is b.data

    def test_gnuld_specs_describe_the_shared_files(self):
        fs1, fs2 = FileSystem(), FileSystem()
        specs1 = generate_gnuld_objects(fs1, 6, seed=3)
        specs2 = generate_gnuld_objects(fs2, 6, seed=3)
        assert specs1 == specs2
        assert [s.path for s in specs2] == fs2.paths()

    @pytest.mark.parametrize("app", sorted(GENERATORS))
    def test_files_are_views_of_mappings_unmapped_with_the_dataset(self, app):
        """Every file is a read-only view into an anonymous mapping, and
        the mappings are closed once the slot has moved on and the file
        systems built over them are released."""
        _evict()
        fs = FileSystem()
        GENERATORS[app](fs)
        mappings = {}
        for ino in range(fs.nfiles):
            data = fs.inode(ino).data
            assert isinstance(data, memoryview) and data.readonly
            assert isinstance(data.obj, mmap.mmap)
            mappings[id(data.obj)] = weakref.ref(data.obj)
        del data
        fs.release()
        assert all(ref() is not None for ref in mappings.values())  # the slot's
        _evict()
        assert all(ref() is None for ref in mappings.values())

    @pytest.mark.parametrize("size", [0, 5, FILL_BYTES, FILL_BYTES + 3,
                                      3 * FILL_BYTES - 1])
    def test_a_file_filled_in_steps_is_the_stream_drawn_at_once(self, size):
        view = memoryview(bytearray(size))
        random_fill(DeterministicRng(4, "fill"), view)
        assert bytes(view) == DeterministicRng(4, "fill").bytes(size)

    @pytest.mark.parametrize("pinned_by_garbage", [False, True])
    def test_one_dataset_is_held_at_a_time(self, monkeypatch, pinned_by_garbage):
        """The old dataset is gone before the next one is allocated — also
        when what still holds its files is an unreachable cycle, as a
        finished simulated system is."""
        _evict()
        watch = _Generations(monkeypatch, ALL_GENERATORS)
        largest = 0
        for app in ("agrep", "gnuld", "postgres", "xds", "agrep"):
            inodes = _built(app)
            largest = max(largest, sum(inode.size for inode in inodes))
            if pinned_by_garbage:
                inodes.append(inodes)
            del inodes
        peak = max(before + made for before, made in watch.generations)
        assert len(watch.generations) == 5
        assert largest > 2_000_000
        assert peak <= 1.5 * largest

    @pytest.mark.parametrize("variant", [Variant.ORIGINAL, Variant.SPECULATING])
    def test_a_kept_finished_cell_pins_no_dataset(self, monkeypatch, variant):
        """A caller that keeps a finished cell's ``(result, system)`` while
        a cell of another app runs, as the matrix loop does, keeps none of
        its files: the first dataset is freed before the second is
        generated."""
        _evict()
        watch = _Generations(
            monkeypatch, [(datasets, "_gnuld_files"), (datasets, "_xds_volume")])
        for app in ("gnuld", "xds"):
            kept = run_experiment_with_system(ExperimentConfig(
                app=app, variant=variant, workload_scale=0.2))
        del kept
        (_, gnuld), (left_of_gnuld, _) = watch.generations
        assert gnuld > 1_000_000
        # Bytes of the gnuld mappings still alive when xds is generated.
        assert left_of_gnuld < gnuld / 100
