"""Golden output bytes: pinned sha256 digests of BLAS-free CLI outputs.

Each argv below writes its result file with ``--out``, and the file's sha256
must equal the pinned digest.  These outputs run on the counter-based streams,
the inverse-CDF transforms, ``math.fsum`` reductions and scalar bound
arithmetic only, so their bytes are fixed across machines.  A digest changes
only together with a CHANGES.md line that says which output moved and why.

The SK, Wigner and ``lambda_audit`` outputs are left out on purpose: their
last digits come from GEMM, LU or ``dsytrd`` rounding, which depends on the
BLAS/LAPACK build, so a digest pinned on one build could fail on another
with correct code.  The determinism tests check their reruns within one
build instead.
"""

import hashlib

import pytest

from lindeberg_lab.cli import main

GOLDEN = [
    (["clt", "--size", "64", "--replicates", "500", "--seed", "5"],
     "43e076b775f72ec8a62404c2c05eeb872ac9d977fe6222d82d34e90ae0bff8c2"),
    (["clt", "--g", "clipped_square", "--dist-x", "cexp", "--size", "32",
      "--replicates", "200", "--format", "json"],
     "baf64effcda4c006156eda50adadadf059eb9f5d5ba621ccde8a639ef9b08d23"),
    (["erdos_kac", "--size", "300", "--dist-x", "pareto:4",
      "--replicates", "400", "--threads", "2"],
     "5d905c92ab4df38bc6864d57be094988973027d2226a9199be4be56e651c4e46"),
    (["bound_table", "--sizes", "8,12,16"],
     "2c8ce1da3c5a5c881b5546c551b97335a9b854d8232e3b34b732ca236f119f51"),
    (["bound_table", "--sizes", "8,24", "--format", "json"],
     "5874e08aa29acf252485f7ac2bbaf2f3c7e106a5962d5b9ca56e81a22cdcfadd"),
]


@pytest.mark.parametrize("argv, want", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_output_bytes_are_pinned(argv, want, tmp_path, capsys):
    out = tmp_path / "result"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
