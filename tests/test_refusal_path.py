"""The command line turns a library error into its one refusal line in one
place: `cli._flag` for one flag, `cli._fields` for several. No other `except`
clause of cli.py raises, apart from the one that reads the INI file."""
import ast
import pathlib

import egsolve

CLI = pathlib.Path(egsolve.__file__).parent / "cli.py"


def _raising_handlers(tree: ast.Module):
    """(top-level name, try statement) for each except clause that raises;
    a method counts under its class's name."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    if any(isinstance(n, ast.Raise) for n in ast.walk(handler)):
                        yield getattr(top, "name", None), node


def test_only_flag_and_fields_turn_errors_into_refusals():
    found = list(_raising_handlers(ast.parse(CLI.read_text(), filename=str(CLI))))
    names = sorted({name for name, _ in found})
    assert set(names) <= {"_flag", "_fields", "_apply_config"}, names
    # _apply_config may translate only configparser's read of the file
    reads = [ast.unparse(t.body) for name, t in found if name == "_apply_config"]
    assert reads == ["ini.read(path, encoding='utf-8')"]
