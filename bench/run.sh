#!/bin/sh
# Builds vmpbench and runs it from the root of a checkout. The benchmark
# driver calls this instead of the go tool so that the Go build cache,
# the linker's temporary files and the binary stay inside the checkout
# (.bench_build/, ignored by git) and need no writable home directory.
# bench/ is a module of its own that replaces vmp with the directory
# above it: without the repository around it the build fails, and so
# does this script.
set -e
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off \
	go build -C bench -o "$build/vmpbench" .
exec "$build/vmpbench" "$@"
