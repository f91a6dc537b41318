import ast
import inspect
from pathlib import Path

import pytest

from routebayes import errors
from routebayes.errors import InfeasibleConstraints, ValidationError, at

SRC = Path(errors.__file__).parent

CLASSES = [obj for _, obj in inspect.getmembers(errors, inspect.isclass) if obj.__module__ == errors.__name__]


def raised_names() -> set[str]:
    """Names of the exception types that some ``raise`` statement in the package constructs."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return names


def test_module_defines_the_eight_types_and_one_translator():
    assert sorted(cls.__name__ for cls in CLASSES) == [
        "DanglingReference", "InfeasibleConstraints", "IoError", "ParseError", "PlanTooLarge",
        "RouteBayesError", "SchemaVersionUnsupported", "ValidationError",
    ]
    functions = [name for name, obj in inspect.getmembers(errors, inspect.isfunction)
                 if obj.__module__ == errors.__name__]
    assert functions == ["at"]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_type_is_raised_or_has_a_raised_subclass(cls):
    raised = raised_names()
    assert any(issubclass(other, cls) and other.__name__ in raised for other in CLASSES)


class TestAt:
    def test_passes_the_result_through(self):
        assert at("x", divmod, 7, 2) == (3, 1)

    @pytest.mark.parametrize("call,reason", [
        (lambda: int("seven"), "invalid literal"),
        (lambda: 1 / 0, "division by zero"),
        (lambda: float("inf").__int__(), "cannot convert float infinity to integer"),
    ])
    def test_value_and_arithmetic_errors_name_the_path(self, call, reason):
        with pytest.raises(ValidationError, match=r"^routes\[r1\]: ") as info:
            at("routes[r1]", call)
        assert info.value.path == "routes[r1]"
        assert reason in info.value.reason
        assert isinstance(info.value.__cause__, (ValueError, ArithmeticError))

    def test_toolkit_errors_keep_their_type(self):
        def infeasible():
            raise InfeasibleConstraints("lower bounds sum to 1.2 > 1")

        with pytest.raises(InfeasibleConstraints, match="^lower bounds"):
            at("constraints", infeasible)

    def test_path_and_call_are_positional_only(self):
        assert at("p", dict, path="q", call="r") == {"path": "q", "call": "r"}
