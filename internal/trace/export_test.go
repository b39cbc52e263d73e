package trace

import "io"

// EncodeUnchecked is Encode without its timestamp check, so tests can
// build the files an encoder that trusted its input would write.
func (tr *Trace) EncodeUnchecked(w io.Writer) (int64, error) { return tr.encode(w) }
