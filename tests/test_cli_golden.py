"""CLI stdout stays byte-identical on a golden set of invocations.

Each hash is the sha256 of the command's stdout as recorded before the
classify hot path was rebuilt around conegeom.lift and the graded
enumerator; a changed hash means the printed output changed.  The
STREAMED hashes were recorded before classify, ne and TSV output were
streamed through hand-laid, batched writers, except the last eight: two
recorded before ne and classify shared one batch writer and iter_rows
yielded the printed row, two, with and without the vertex component,
whose footers give different verdicts, recorded while the writer
collected the footer's dimensions, two whose weights put a general
enumerator frame above an equal suffix, recorded while each row of that
suffix still passed through one frame per coordinate, and the
benchmark's own two command-line calls, recorded while each component
took one dot product for its stratum check and one for its dimension.
The E8 `roots` and `gp` hashes were recorded while the positive roots
were ordered by one sort keyed on grade_key.
"""

import hashlib

import pytest

from conecurves.cli import main

E8_FLAG = ["--type", "E8", "--parabolic", "1,2,3,4,5,6,7,8", "--lambda", "min"]

GOLDEN = [
    (
        ["classify", *E8_FLAG, "--vertex-dim", "1", "--degree", "6"],
        "32ab85639557085e93bd0b0a7381149fc989726621960f1bf5efb90c712000f8",
    ),
    (
        ["classify", "--format", "tsv", "--type", "A1", "--parabolic", "1", "--lambda", "2",
         "--vertex-dim", "3", "--degree", "40"],
        "da3196edf66c09e19f18c45e42339966f94e2c28c9946da3bc9185443df8bc72",
    ),
    (
        ["classify", "--exclude-vertex-stratum", "--type", "A3", "--parabolic", "1,3", "--lambda", "min",
         "--vertex-dim", "2", "--degree", "3"],
        "8491deade544637d01d32e27cd2118e2e19c5be11ec98078fd7f3de9f26e27af",
    ),
    (
        ["ne", "--type", "B4", "--parabolic", "1,2,3,4", "--lambda", "min", "--vertex-dim", "1", "--degree", "5"],
        "510461240d5181e47dbf5d9c0127fc0664aa7c5fc9d5f3db3ab6cae06d164aeb",
    ),
    (
        ["affine-compare", "--type", "F4", "--degree", "6"],
        "10ea8755631b32c6c1034a53eb745fa6fe9e79535d4d341259654590f72ae733",
    ),
    (
        ["gp", "--type", "F4", "--parabolic", "2,3"],
        "7938c033bde451b35fe2f029dbdb3163184e4be42e87c1c7e935e91a1ab7d787",
    ),
    (
        ["roots", "--type", "G2"],
        "07cb6a486468ccb580c02f78116c1ae2821125d0c21357d544881aa269022d2e",
    ),
    (
        ["roots", "--type", "E8"],
        "d8a5d6c3a54f899a7fe2b10fef32390cfd50c86fdfbc7351e4e422cfdf69ae6a",
    ),
    (
        ["gp", "--type", "E8", "--parabolic", "1,2,3,4,5,6,7,8"],
        "b21fc4b4c670a3abe78bdfd9af9ac367a477afafc0adee6dba27e13673526e94",
    ),
]


STREAMED = [
    (
        "classify tsv E8 flag d=8",
        ["classify", "--format", "tsv", *E8_FLAG, "--vertex-dim", "1", "--degree", "8"],
        "679cad2732f35bb1ac234e6073777bbde09ebbe5962deea244daf65cb0841891",
    ),
    (
        "classify json exclude-vertex E8 ell=2 n=2 d=12",
        ["classify", "--exclude-vertex-stratum", "--type", "E8", "--parabolic", "1,2,3,4,5,6,7,8",
         "--lambda", "2,2,2,2,2,2,2,2", "--vertex-dim", "2", "--degree", "12"],
        "f11c4e7436f658558313599af88c7f0fda8f90d2ccae0ba5cb029026044cf95e",
    ),
    (
        "classify json empty components",
        ["classify", "--exclude-vertex-stratum", "--type", "A1", "--parabolic", "1", "--lambda", "2",
         "--vertex-dim", "1", "--degree", "0"],
        "71d52607e34c469e6e424658855e56065c4aacc7f2ab7210977b402ed3c1551d",
    ),
    (
        "ne E8 flag d=10",
        ["ne", *E8_FLAG, "--vertex-dim", "1", "--degree", "10"],
        "a1baab0e470029a730cfe72ca04951a99bd0a334a57b237f7ce58940d3edc9e0",
    ),
    (
        "classify tsv exclude-vertex E8 ell=2 n=2 d=12",
        ["classify", "--format", "tsv", "--exclude-vertex-stratum", "--type", "E8", "--parabolic",
         "1,2,3,4,5,6,7,8", "--lambda", "2,2,2,2,2,2,2,2", "--vertex-dim", "2", "--degree", "12"],
        "59f0cb788280df516040b125348e6b23b7bc44989d61d017d05f694c59d27a7d",
    ),
    (
        "classify json not equidimensional",
        ["classify", "--type", "A3", "--parabolic", "1,2", "--lambda", "1,2,0", "--vertex-dim", "2",
         "--degree", "4"],
        "29cd7ccc6d7fe91a5e8052d671185321068050c269175cdaf883ba117365eca6",
    ),
    # P^2 (c = 3) with ell = 2, no lines: at d = 2 the vertex component (dimension 7) and
    # e_1 (dimension 8) differ, and without the vertex the one component left agrees with itself.
    (
        "classify json not equidimensional with the vertex",
        ["classify", "--type", "A2", "--parabolic", "1", "--lambda", "2,0", "--vertex-dim", "1", "--degree", "2"],
        "15a90f4ac4a9c4fa93d314750c2465003101aaf0e1b5a2c9ed73bca67e3b2ff5",
    ),
    (
        "classify json equidimensional without the vertex",
        ["classify", "--exclude-vertex-stratum", "--type", "A2", "--parabolic", "1", "--lambda", "2,0",
         "--vertex-dim", "1", "--degree", "2"],
        "01c5bd8963d57b93259f434cea6c1f498de8863ae0944e16f379a1e94c5c7592",
    ),
    # ell = (3, 1, 1, 1) and (3, 2, 2, 2): the first coordinate runs in a general frame, and the
    # three after it are an equal suffix listed as compositions.  The ne document counts 185 rows.
    (
        "ne general frame above an equal suffix A4",
        ["ne", "--type", "A4", "--parabolic", "1,2,3,4", "--lambda", "3,1,1,1", "--vertex-dim", "1",
         "--degree", "12"],
        "f71bdcdadfac9b3c299ebfddfc7c337d3f3fe156b349609f4dda3743ab80121d",
    ),
    (
        "classify tsv general frame above an equal suffix D4",
        ["classify", "--format", "tsv", "--type", "D4", "--parabolic", "1,2,3,4", "--lambda", "3,2,2,2",
         "--vertex-dim", "1", "--degree", "9"],
        "5a14a1da1995901e1b8600a8fde61b4e660beec6ffe73d7e21958d4f3856e0bf",
    ),
    # The benchmark's command-line calls: flag-lines' 6,435 JSON components, and deep-strata's
    # conic cone (ell = 2, no lines), 751 TSV rows over 1,501 strata.
    (
        "classify json E8 flag d=8",
        ["classify", *E8_FLAG, "--vertex-dim", "1", "--degree", "8"],
        "be875238341e98698311298ae453be163819463c447f49731afb262dc27cbbfe",
    ),
    (
        "classify tsv conic n=3 d=1500",
        ["classify", "--format", "tsv", "--type", "A1", "--parabolic", "1", "--lambda", "2",
         "--vertex-dim", "3", "--degree", "1500"],
        "9d1024ca139056edf23ee7cbeaf1b09ec1c9906857ce39eb85fc93b7e67a794d",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    [pytest.param(a, h, id=" ".join(a[:3])) for a, h in GOLDEN]
    + [pytest.param(a, h, id=name) for name, a, h in STREAMED],
)
def test_stdout_hash_unchanged(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
