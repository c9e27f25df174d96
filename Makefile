# Convenience targets; scripts/ci.sh is the canonical gate.

.PHONY: ci test

ci:
	scripts/ci.sh

test:
	PYTHONPATH=src python -m pytest -x -q
