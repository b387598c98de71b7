package shard

// indentJSON appends src, valid compact JSON as json.Marshal writes it,
// laid out as json.Indent(dst, src, "", "  ") lays it out: a newline and
// two spaces per level after every opening bracket and comma, a space
// after every colon, and "{}" and "[]" for empty containers. String
// tokens are copied verbatim.
func indentJSON(dst, src []byte) []byte {
	depth, open := 0, false // open: the last token opened a container
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case '}', ']':
			if open {
				open = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
			continue
		case ',':
			dst = append(dst, c)
			dst = appendNewline(dst, depth)
			continue
		case ':':
			dst = append(dst, ':', ' ')
			continue
		}
		if open {
			open = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '{', '[':
			dst = append(dst, c)
			open = true
		case '"':
			j := i + 1
			for ; j < len(src) && src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			dst = append(dst, src[i:min(j+1, len(src))]...)
			i = j
		default: // a number or literal runs to the next delimiter
			j := i + 1
			for j < len(src) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j - 1
		}
	}
	return dst
}

// appendNewline appends a newline and depth levels of two-space indent.
func appendNewline(dst []byte, depth int) []byte {
	const spaces = "\n                                                                "
	dst = append(dst, spaces[:min(2*depth+1, len(spaces))]...)
	for n := 2*depth + 1 - len(spaces); n > 0; n-- {
		dst = append(dst, ' ')
	}
	return dst
}
