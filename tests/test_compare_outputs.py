import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from compare_outputs import main, numeric_difference  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def test_json_numbers_pair_by_key_path(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"r": 2.0, "v": [1, 3.0], "ok": True}))
    new.write_text(json.dumps({"r": 2.25, "v": [1, 3.0], "ok": False, "added": 7}))
    # the flag and the key on one side only count as the two other entries
    assert numeric_difference(old, new) == "max |diff| 2.500e-01, scaled 1.250e-01, other 2"


def test_csv_numbers_pair_by_cell(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("x,u,flag\n-3.0,0.5,ok\n1.0,,hole\n2.0,nan,inf\n4.0,nan,inf\n")
    new.write_text("x,u,flag\n-3.5,0.5,ok\n1.0,,hole\n2.0,0.25,inf\n4.0,nan,-inf\n")
    # NaN -> 0.25 and inf -> -inf have no distance and count as other;
    # the unchanged NaN and inf cells count as equal
    assert numeric_difference(old, new) == "max |diff| 5.000e-01, scaled 1.667e-01, other 2"


@pytest.mark.parametrize("label", ["old", "new"])
def test_rerun_on_the_same_work_dir_stops_at_once(tmp_path, capsys, label):
    (tmp_path / label).mkdir()
    with pytest.raises(SystemExit) as exc:
        main([str(SRC), str(SRC), "--work", str(tmp_path)])
    assert exc.value.code == 2
    assert f"{tmp_path / label} exists" in capsys.readouterr().err
    # nothing ran: the gallery is written only after the check
    assert not (tmp_path / "gallery").exists()
