"""``read_dataset``'s bulk ``np.loadtxt`` path against the row loop it falls back to.

Every file gives the same outcome on both readers: bit-equal arrays, or the
same exception type, message and line.  The corpus holds what ``csv.reader``
plus ``float()`` and ``loadtxt`` treat differently, so a file the bulk path
parses its own way must reach the loop instead.
"""

import decimal
import warnings
from pathlib import Path

import numpy as np
import pytest

from frontier_moments import cli, study
from frontier_moments.study import DatasetFormatError

ROOT = Path(__file__).resolve().parent.parent
H1 = b"x_1,y\n"
H2 = b"x_1,x_2,y\n"

CORPUS = {
    # files the bulk path takes
    "clean": H1 + b"0.5,1.0\n0.25,2.0\n",
    "clean-d2": H2 + b"0.5,0.5,1.0\n0.1,0.2,3\n",
    "crlf": b"x_1,y\r\n0.5,1.0\r\n0.25,2.0\r\n",
    "cr-only-line-ends": b"x_1,y\r0.5,1.0\r0.25,2.0\r",
    "no-final-newline": H1 + b"0.5,1.0",
    "blank-lines": H1 + b"\n0.5,1.0\n\n0.25,2.0\n\n",
    "padded-whitespace": H1 + b" 0.5 , 1.0 \n\t0.25\t,2.0\n",
    "unicode-whitespace": H1 + "\xa00.5,1.0　\n".encode(),
    "quoted-header": b'"x_1","y"\n0.5,1.0\n',
    "signs-and-exponents": H1 + b"+0.5,+1.0\n-.5,1.\n1E-1,1e+0\n",
    "subnormal-and-underflow": H1 + b"5e-324,1.0\n1e-400,1.0\n",
    # files only the loop decides
    "nonpositive-response": H1 + b"0.5,1.0\n0.25,0\n",
    "zero-response-line-4": H1 + b"0.5,1.0\n0.4,0.9\n0.3,0\n0.6,1.1\n",
    "negative-zero-response": H1 + b"0.5,1.0\n0.25,-0.0\n",
    "negative-response-d2": H2 + b"0.5,0.5,1.0\n0.5,0.25,-2e-300\n",
    "quoted-newline-then-bad-row": H1 + b'"0.5\n",1.0\n0.25,x\n',
    "quoted-newline-then-nonpositive": H1 + b'"0.5\n",1.0\n0.25,0\n',
    "quoted-fields": H1 + b'"0.5","1.0"\n',
    "quoted-then-space": H1 + b'"0.5" ,1.0\n',
    "quoted-embedded-newline": H1 + b'"0.5\n",1.0\n0.25,2.0\n',
    "quoted-comma": H1 + b'"0.5,1.0"\n',
    "quote-after-space": H1 + b' "0.5",1.0\n',
    "quote-inside-field": H1 + b'0"5",1.0\n',
    "underscore-digits": H1 + b"1_0,1.0\n",
    "trailing-comma": H1 + b"0.5,1.0,\n",
    "bom": b"\xef\xbb\xbf" + H1 + b"0.5,1.0\n",
    "bom-in-body": H1 + b"\xef\xbb\xbf0.5,1.0\n",
    "comment-line": H1 + b"# note\n0.5,1.0\n",
    "inline-comment": H1 + b"0.5,1.0 # note\n",
    "whitespace-only-line": H1 + b"0.5,1.0\n   \n0.25,2.0\n",
    "tab-only-line": H1 + b"0.5,1.0\n\t\n0.25,2.0\n",
    "cr-inside-row": H1 + b"0.5\r1.0\n",
    "hex-float": H1 + b"0x1p-1,1.0\n",
    "hex-int": H1 + b"0x10,1.0\n",
    "fortran-exponent": H1 + b"1d-1,1.0\n",
    "complex": H1 + b"1+0j,1.0\n",
    "full-width-digits": H1 + "０.５,1.0\n".encode(),
    "arabic-indic-digits": H1 + "٠.٥,1.0\n".encode(),
    "overflow": H1 + b"0.5,1.0\n1e400,1.0\n",
    "nan-first-column": H1 + b"nan,1.0\n",
    "nan-last-column": H1 + b"0.5,1.0\n0.5,NaN\n",
    "infinity-middle-row": H1 + b"0.5,1.0\nInfinity,1.0\n0.2,1\n",
    "negative-infinity-d2": H2 + b"0.5,0.5,1.0\n0.5,-inf,1.0\n",
    "nan-payload": H1 + b"nan(1),1.0\n",
    "nul-in-field": H1 + b"0.5,1.0\x00\n",
    "nul-line": H1 + b"0.5,1.0\n\x00\n",
    "undecodable-byte": H1 + b"0.5,1.0\xff\n",
    "space-inside-number": H1 + b"0 5,1.0\n",
    "empty-field": H1 + b"0.5,\n",
    "text": H1 + b"0.5,oops\n",
    "bool-text": H1 + b"true,1.0\n",
    "semicolons": H1 + b"0.5;1.0\n",
    "short-row": H1 + b"0.5\n",
    "long-row": H1 + b"0.5,1.0,2.0\n",
    "ragged-d2": H2 + b"0.5,0.5,1.0\n0.5,1.0\n",
    "line-separator": H1 + "0.5,1.0 0.2,1.0\n".encode(),
    "next-line": H1 + "0.5,1.0\x850.2,1.0\n".encode(),
    "bad-row-after-blanks": H1 + b"\n\n0.5,x\n",
    # loadtxt strips these as whitespace around a number; float() refuses them
    "file-separator": H1 + b"0.5\x1c,1.0\n",
    "group-separator": H1 + b"\x1d0.5,1.0\n",
    "record-separator": H1 + b"0.5,1.0\x1e\n",
    "unit-separator": H1 + b"0.5,1.0\n0.25,\x1f2.0\n",
    # no rows
    "header-only": H1,
    "header-only-no-newline": b"x_1,y",
    "header-only-crlf": b"x_1,y\r\n",
    "blank-only": H1 + b"\n\n\n",
    "empty": b"",
    "bad-header": b"a,b\n0.5,1.0\n",
    "padded-header": b"x_1, y\n0.5,1.0\n",
}
BULK = {
    "clean", "clean-d2", "crlf", "cr-only-line-ends", "no-final-newline", "blank-lines", "padded-whitespace",
    "unicode-whitespace", "quoted-header", "signs-and-exponents", "subnormal-and-underflow",
}


def outcome(reader, path):
    """Arrays as (shape, dtype, bytes), or the exception as (type, message, line)."""
    try:
        s = reader(path)
    except Exception as err:
        return ("raised", type(err), str(err), getattr(err, "line", None))
    return ("read", s.xs.shape, s.xs.dtype, s.xs.tobytes(), s.ys.shape, s.ys.dtype, s.ys.tobytes())


@pytest.fixture
def no_loop(monkeypatch):
    """Make the row loop fail, so a read that returns came from the bulk path."""

    def loop(path):
        raise AssertionError(f"row loop ran on {path}")

    monkeypatch.setattr(study, "_read_dataset_rows", loop)


@pytest.mark.parametrize("name", CORPUS)
def test_bulk_and_loop_agree(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_bytes(CORPUS[name])
    assert outcome(study.read_dataset, path) == outcome(study._read_dataset_rows, path)


@pytest.mark.parametrize("name", sorted(BULK))
def test_plain_files_take_the_bulk_path(tmp_path, no_loop, name):
    path = tmp_path / "data.csv"
    path.write_bytes(CORPUS[name])
    study.read_dataset(path)


def repr_corpus(count: int, seed: int = 12) -> list[str]:
    """Decimal strings a dataset can hold: shortest reprs, long digit strings, halfway cases."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    # a quarter subnormal: clear the 11 exponent bits
    bits[: count // 4] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    values = [v for v in bits.view(np.float64).tolist() if np.isfinite(v)]
    k = len(values) // 5
    texts = [repr(v) for v in values[: 2 * k]]
    texts += [format(v, ".17e") for v in values[2 * k : 3 * k]]
    texts += [format(v, ".25g") for v in values[3 * k : 4 * k]]
    with decimal.localcontext() as ctx:
        ctx.prec = 800  # the exact decimal of a double has at most 767 significant digits
        for v in values[4 * k :]:
            lo, hi = decimal.Decimal(v), decimal.Decimal(np.nextafter(v, np.inf))
            if not hi.is_finite():
                continue
            mid = (lo + hi) / 2
            texts += [str(mid), str(mid.next_plus()), str(mid.next_minus())]
    return texts[:count]


def test_decimal_strings_parse_like_float(tmp_path, no_loop):
    texts = repr_corpus(10_000)
    assert len(texts) == 10_000
    path = tmp_path / "data.csv"
    path.write_text("x_1,y\n" + "".join(f"{t},1.0\n" for t in texts), encoding="utf-8")
    xs = study.read_dataset(path).xs[:, 0]
    want = np.array([float(t) for t in texts])
    assert xs.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("d", [1, 2])
def test_bulk_arrays_are_contiguous_and_read_only(tmp_path, no_loop, d):
    path = tmp_path / "data.csv"
    path.write_bytes(CORPUS["clean" if d == 1 else "clean-d2"])
    s = study.read_dataset(path)
    assert s.xs.shape == (2, d) and s.ys.shape == (2,)
    for a in (s.xs, s.ys):
        assert a.flags.c_contiguous and not a.flags.writeable


@pytest.mark.parametrize("name", ["header-only", "header-only-no-newline", "header-only-crlf", "blank-only"])
def test_no_rows_raises_without_a_warning(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_bytes(CORPUS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetFormatError) as err:
            study.read_dataset(path)
    assert str(err.value) == "dataset holds no rows" and err.value.line == 2
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(DatasetFormatError):
            study.read_dataset(path)
    assert seen == []


def test_estimate_csv_is_the_same_on_both_paths(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    model = str(ROOT / "models" / "two_term_tail.json")
    assert cli.main(["simulate", "--model", model, "--n", "4000", "--seed", "11", "--out", str(data)]) == 0
    out = {}
    for path in ("bulk", "loop"):
        with monkeypatch.context() as m:
            if path == "bulk":
                m.setattr(study, "_read_dataset_rows", lambda p: pytest.fail("row loop ran"))
            else:
                m.setattr(cli, "read_dataset", study._read_dataset_rows)
            out[path] = tmp_path / f"{path}.csv"
            argv = ["estimate", str(data), "--p", "20", "--h", "0.05", "--grid", "41", "--out", str(out[path])]
            assert cli.main(argv) == 0
    assert out["bulk"].read_bytes() == out["loop"].read_bytes()
