from identity_set import compare

SAVED = ["== a", "exit 0", "stdout ''", "== b", "exit 1", "abc  poses.csv"]


def test_identical_digests_exit_0(tmp_path, capsys):
    path = tmp_path / "digests.txt"
    path.write_text("\n".join(SAVED) + "\n")
    assert compare(SAVED, str(path)) == 0
    assert capsys.readouterr().out == f"identical to {path}: 6 lines\n"


def test_differing_lines_print_under_their_entry(tmp_path, capsys):
    path = tmp_path / "digests.txt"
    path.write_text("\n".join(SAVED) + "\n")
    now = ["== a", "exit 0", "stdout ''", "== b", "exit 1", "abd  poses.csv",
           "== c", "exit 0"]
    assert compare(now, str(path)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "== b", "-abc  poses.csv", "+abd  poses.csv", "== c", "+exit 0"]
