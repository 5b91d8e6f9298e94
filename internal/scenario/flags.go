package scenario

import "flag"

// ResolveDataset resolves the -dataset / -scenario-file flag pair of a
// parsed flag set, both of which fs must define. Without -scenario-file it
// returns -dataset's value. With it, the file is registered (RegisterFile,
// whose error is returned unchanged) and the result is the file's
// [scenario] name, unless -dataset was set explicitly, which wins.
func ResolveDataset(fs *flag.FlagSet) (string, error) {
	name := fs.Lookup("dataset").Value.String()
	file := fs.Lookup("scenario-file").Value.String()
	if file == "" {
		return name, nil
	}
	sc, err := RegisterFile(file)
	if err != nil {
		return "", err
	}
	explicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "dataset" {
			explicit = true
		}
	})
	if explicit {
		return name, nil
	}
	return sc.Name, nil
}
