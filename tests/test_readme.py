import importlib
import inspect
import re
from pathlib import Path

import hypertower
from hypertower.basefields import PadicRationals
from hypertower.cosets import coset_of, hyperadd

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour():
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    exec(compile(_tour(), str(README), "exec"), {})


def test_package_root_exports_the_tour():
    used = set(re.findall(r"\bht\.(\w+)", _tour()))
    assert set(hypertower.__all__) == used
    assert len(hypertower.__all__) == len(used)


def test_every_module_export_resolves():
    package = Path(hypertower.__file__).parent
    for path in sorted(package.glob("*.py")):
        name = "hypertower" if path.stem == "__init__" else f"hypertower.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], (name, missing)


def test_module_bullets_name_real_objects():
    """Each bare name in backticks in a `hypertower.<module>` bullet is an
    attribute of that module or of a class defined there; one-letter
    names are math symbols."""
    bullets = re.findall(
        r"^\* \*\*`(hypertower(?:\.\w+)?)`\*\*(.*?)(?=^\S|^\s*$)",
        README.read_text(),
        re.S | re.M,
    )
    assert len(bullets) > 1
    for name, body in bullets:
        module = importlib.import_module(name)
        classes = [
            c for _, c in inspect.getmembers(module, inspect.isclass)
            if c.__module__ == name
        ]
        missing = [
            word
            for word in sorted(set(re.findall(r"`([A-Za-z_]\w*)`", body)))
            if len(word) > 1
            and not hasattr(module, word)
            and not any(hasattr(c, word) for c in classes)
        ]
        assert missing == [], (name, missing)


def test_serialization_sentence_names_the_json_keys():
    """The keys README gives for digit windows, classes and sum
    descriptors are those their ``to_json`` writes."""
    text = " ".join(README.read_text().split())
    field = PadicRationals(5)
    c = coset_of(field, 3, 2)
    shapes = {
        "Digit windows serialize as": field.expand(3, 4),
        "Classes serialize as": c,
        "sum descriptors as": hyperadd(c, c),
    }
    for lead, obj in shapes.items():
        schema = re.search(re.escape(lead) + r" `(\{.*?\})`", text).group(1)
        assert re.findall(r'"(\w+)":', schema) == list(obj.to_json()), lead
