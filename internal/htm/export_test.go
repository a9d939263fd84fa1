package htm

// ActiveLines returns the number of lines currently tracked.
func (s *System) ActiveLines() int {
	n := s.dir.Len()
	for _, sl := range s.slices {
		n += sl.Len()
	}
	return n
}
