"""Pins the SHA-256 of every file the seven commands write on a small database.

A change to how any artifact is encoded (a number format, a key order, a line
ending, a file name) changes a digest below. Commands run from a temporary
working directory with relative paths, because manifests record the paths
they were given.
"""

import hashlib
import json
from pathlib import Path

import adherence
from adherence.cli import main

COMMANDS = [
    ["generate", "--seed", "7", "--n-users", "20", "--out", "db"],
    ["ingest", "--db", "db", "--out", "ingest"],
    ["build", "--db", "db", "--out", "built"],
    ["stats", "--db", "db", "--variant", "D3", "--out", "stats"],
    ["cv", "--dataset", "built/dataset_D0.csv", "--model", "majority", "--seed", "1", "--out", "cv_majority"],
    ["cv", "--dataset", "built/dataset_D0.csv", "--config", "tree.json", "--k", "4", "--seed", "1",
     "--out", "cv_tree"],
    ["train", "--dataset", "built/dataset_D0.csv", "--config", "tree.json", "--seed", "1", "--out", "model"],
    ["predict", "--model-file", "model/model.json", "--dataset", "built/dataset_D0.csv", "--out", "preds"],
]

# Text that encodes a file's bytes; only adherence/artifact.py may hold it.
ENCODERS = ("csv.writer(", "json.dump(", "json.dumps(", ".write_text(")
DECODERS = ("open(", "csv.reader(", "json.load(")  # json.load( does not match json.loads(

DIGESTS = {
    "built/cleanse_report.csv": "fa7d58ecf2f2bca361e4147a4654deee0a207816fb4f14e1ea42e66c2d6d56ce",
    "built/dataset_D0.csv": "e2136902e851497423a935208106a1033b122195b257b7d43143852d3feb0c6b",
    "built/dataset_D1.csv": "212cbd4b0137a020073b7e10a7567e4f006b6921c85ad2bf82e7910f01694b5a",
    "built/dataset_D2.csv": "da8d959c165c5308f51f1c8751e8082fbb5f5660227f97c2d54f402341b840fb",
    "built/dataset_D3.csv": "b241797fc2309dd449cb4f64b904ee0f3445260ec2c4457d0ccf74b71b00a977",
    "built/dataset_D4.csv": "6ff5c5fc42acb7511f3847118fc596c06996aea7f197294874dcae7e20894cc9",
    "built/dataset_D5.csv": "72d5fcf5dee555ade8f23719714b472ee905a28e460765362ec34bf2f23b3cb3",
    "built/dataset_D6.csv": "a81dd94576d3db4dab95507b2934727a34741d7f077a56bec7cbed9789fca1e6",
    # Re-recorded when build stopped writing dataset_D*.csv.meta.json: its
    # outputs list lost those seven names and nothing else changed.
    "built/manifest_build.json": "3985c513615bee7d716080f406df067edc75e244f2c3dabd4a9c5de9dc6110d1",
    "built/rejects.csv": "0cde5854769ff55fec75300ac5959129f218e5143fd291a4837b2f923cf8d46e",
    "built/windows.csv": "41260bd99e758c2db434a2f51765081a30a7df9c7556ec297c6d666ccd3facf9",
    # The two cv_report.csv digests are of CRLF rows, like every other CSV; the
    # cells are the same as when the file had LF rows.
    "cv_majority/cv_report.csv": "4a4ccb43917f813fd72ae4cb96b823bf614c20d5bd8597da528923be529a32ec",
    "cv_majority/cv_report.json": "ee36912af9031e494fc53c8c19ec8d2c2d1022f46b9e6cfeca91c49683ba1558",
    "cv_majority/manifest_cv.json": "67ff24a807ebc814d6ce23aa62cb3141175dd10abc1ee91fa989b90afc91227e",
    "cv_tree/cv_report.csv": "28bba240cbeab71a1a183f23d05d1edf4b4185046af3907feca2967d04257267",
    "cv_tree/cv_report.json": "78031bf677decd64085158b35f17b1df8fca0cc2783e271e2afeb0305e65cdff",
    "cv_tree/manifest_cv.json": "b50a0eff6faa0f64fc6e2ae4439ef95f2a55a050fb488e028a69699b3db425bc",
    "db/acquisitions_braingames.csv": "0b89e881d30649dff4cee6d1b1cd329c6cc56821a3b4b1ad56c28c7ce3736834",
    "db/acquisitions_fingertapping.csv": "64affa009c0d1babca8272b2545d1c13e8fa2fc9538a969d2f20f757c534fcd5",
    "db/acquisitions_mindfulness.csv": "66fd7f31a5b496ccea58a11438e8ca85264b8e9fbd25e99ecea7d36a8a311fac",
    "db/acquisitions_physical.csv": "217d8ee104f7e1dd4f56fa5ef1cad4ad22054a2d36b58fc352f24de776b63c38",
    "db/demographics.csv": "52e8280839c9f34218836ec68d5383be4c1e21ca5313d836325cba4c8962e20a",
    "db/eq5d3l_1.csv": "24eec5f07349e194d1792cb1ab7889ef617e620173393ea2decc88705a8a2ffe",
    "db/eq5d3l_3.csv": "f49c05288fc1323bf23524744f91332ea24f61ffb210940f8e75cad7f13b0c22",
    "db/manifest_generate.json": "eb88d0131a7087dc4fd228d9d6a39044b2e8f002e2b37e640dd8d5a85ee446eb",
    "db/spq_1.csv": "6c1c7f1496a42a9269943bdbb84f6fedaef68b8e49ef4cbd444a262aa422924f",
    "db/spq_3.csv": "c83683297567003007d378a7f210a33ebd0efbd7d7becfb112d4a34de072e63a",
    "db/ucla_1.csv": "fe3c661deb73fcaedca3e9ee9c31954cc1cc475ac656830c3e5d629dfa667b78",
    "db/ucla_3.csv": "90db3f597356ce0db3bf7dd021764d6870c145af415e6a8cfdc54c0692e64445",
    "db/utaut_3.csv": "7f8d6706f83440a68649091ab6eb12ae5b63d1e0af3fe411bba416dabb2e91cb",
    "ingest/cleanse_report.csv": "fa7d58ecf2f2bca361e4147a4654deee0a207816fb4f14e1ea42e66c2d6d56ce",
    "ingest/ingest_summary.json": "30d6a4bbeb5d924d402fcfdbb48850db411860017af8afd3c4f831af9f8c692a",
    "ingest/manifest_ingest.json": "a503dcf2c5810c5cbb60725f6a7df56252358636779a1e7662e3c01719214dad",
    "ingest/rejects.csv": "0cde5854769ff55fec75300ac5959129f218e5143fd291a4837b2f923cf8d46e",
    "model/manifest_train.json": "465d7ef668a2215f77f63c4b7982d639306a76fb03bdc7b92208f9fc8786fd4a",
    "model/model.json": "453dbb2450c4c8bb7b5eb964dcc67913ddbbf93b411ceaab5729e27355b00b86",
    "preds/manifest_predict.json": "b34f668d5aedb192c2b009e09b51c3914d6ea7f5f69fe534197edb6329065abd",
    "preds/predictions.csv": "450869e6c1f4f93cc683fe30d9fd6366b1bbc9bf3499d477c1bd6892cc188968",
    "stats/acquisition_distribution.csv": "068395cfef5fe979ad0eb14f8e53d794c168ffe5397388185d76bb9429e24bff",
    "stats/cronbach_alpha.csv": "bae66392eaebe602166788d17878c6ff59fe9b0096f424785f842946a5e683fd",
    "stats/demographics.csv": "3023e31c8cf1dfd614fdcc98bfcf37d85aefa30855e103354a3225eb88790350",
    "stats/duplicates.csv": "34eb500e7253acb639770a7b6d9152612026c09cec3de74a2a58bef70658c7fd",
    "stats/manifest_stats.json": "ac9833dd63edcd72ce38d0c2536bbf2ea131e1098b4a895748a9d868a4be0e4c",
    "stats/null_rates.csv": "b241b024f206ac568097b0749bb7c1358ea595eb56574f7c845ed856b9758c64",
    "stats/session_correlation.csv": "8625524b50ab94f49f8448070fb3f1c3a14a245a142253159377f1fb84d08a9b",
    "stats/stats.json": "656b520052d73428b852afbc9b25b400c5dbf924f9c5dacc4a18100822e3e5c9",
}


def test_every_artifact_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("tree.json").write_text(json.dumps({"model": {"kind": "tree", "max_depth": 3}}))
    for argv in COMMANDS:
        assert main(argv) == 0, argv
    written = {
        p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(".").rglob("*"))
        if p.is_file() and p.name != "tree.json"
    }
    assert written == DIGESTS


def test_only_the_artifact_module_encodes():
    """Only artifact.py writes a file's bytes, or opens and decodes one."""
    package = Path(adherence.__file__).parent
    offenders = [
        f"{path.relative_to(package)}: {needle}"
        for path in sorted(package.rglob("*.py"))
        if path != package / "artifact.py"
        for needle in ENCODERS + DECODERS
        if needle in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
