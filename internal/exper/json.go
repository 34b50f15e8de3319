package exper

import "repro/internal/jsonw"

// AppendJSON appends the report's wire encoding to dst, the encoding shared
// by addsd /v1/experiments responses and addsbench -format json. Missing
// sections encode as empty arrays (never null), so the encoding is stable
// across reports that lack a section.
func (r *Report) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = jsonw.String(dst, r.ID)
	dst = append(dst, `,"title":`...)
	dst = jsonw.String(dst, r.Title)
	if r.Claim != "" {
		dst = append(dst, `,"claim":`...)
		dst = jsonw.String(dst, r.Claim)
	}
	dst = append(dst, `,"headers":`...)
	dst = appendSection(dst, r.Headers)
	dst = append(dst, `,"rows":[`...)
	for i, row := range r.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonw.Strings(dst, row)
	}
	dst = append(dst, `],"notes":`...)
	dst = appendSection(dst, r.Notes)
	dst = append(dst, `,"figures":`...)
	dst = appendSection(dst, r.Figures)
	return append(dst, '}')
}

// appendSection appends a report section, [] when it is missing.
func appendSection(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "[]"...)
	}
	return jsonw.Strings(dst, ss)
}

// MarshalJSON is AppendJSON for encoding/json, through which callers that
// marshal adds.Report encode reports.
func (r *Report) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil), nil }
