#!/bin/sh
# Prints the net non-test Go line count: every *.go file except *_test.go,
# outside perfbench/ (a separate benchmark module) and .bench_build/ (its
# build output). This is the LOC figure ROADMAP.md and CHANGES.md track.
set -eu

cd "$(dirname "$0")/.."

find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune -o \
	-name '*.go' ! -name '*_test.go' -type f -print |
	xargs cat | wc -l | tr -d ' '
