#!/bin/sh
# suites.sh PATTERN [go test flags...] -- PKG...
#
# `go test -run 'A|B'` passes when B matches nothing, so a renamed suite
# drops out of CI silently. This runs `go test [flags] -run PATTERN PKG...`
# only after checking that every '|' alternative of PATTERN lists a test in
# at least one of the packages named.
set -eu
pattern=$1
shift
flags=
while [ "$1" != "--" ]; do
  flags="$flags $1"
  shift
done
shift
for alt in $(echo "$pattern" | tr '|' ' '); do
  go test -list "$alt" "$@" | grep -q '^Test' || {
    echo "-run alternative '$alt' matches no test in $*" >&2
    exit 1
  }
done
# shellcheck disable=SC2086 # flags is a list of words
exec go test $flags -run "$pattern" "$@"
